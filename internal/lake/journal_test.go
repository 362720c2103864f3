package lake

import (
	"reflect"
	"testing"
)

// journalSeeds are FuzzJournalDecode's starting inputs: the empty
// file, a bare magic, one and two sealed frames, and one frame
// followed by each torn tail TestLakeTornJournalTail appends.
func journalSeeds(t testing.TB) [][]byte {
	frames := journalMagic[:]
	var seeds [][]byte
	seeds = append(seeds, nil, append([]byte(nil), frames...))
	for _, c := range []*Commit{
		{ID: 1, Branch: "main", Run: "r", Seed: 1, Day: 5, Snapshot: "base"},
		{ID: 2, Parent: 1, Branch: "main", Run: "r", Seed: 1, Day: 6, Snapshot: "next", Fingerprint: "fp"},
	} {
		var err error
		if frames, err = appendFrame(append([]byte(nil), frames...), c); err != nil {
			t.Fatal(err)
		}
		seeds = append(seeds, frames)
	}
	one := seeds[2]
	for _, torn := range [][]byte{
		{0x00},
		{0x00, 0x00, 0x00, 0x50, 'p', 'a'},
		{0xff, 0xff, 0xff, 0xff, 0x00},
		[]byte("{\"id\":999}garbagegarbage"),
	} {
		seeds = append(seeds, append(append([]byte(nil), one...), torn...))
	}
	return seeds
}

// FuzzJournalDecode: the decoder never panics, its valid prefix never
// overruns the input, it reports a torn tail exactly when it stopped
// short of the end, and the prefix it vouches for decodes to the same
// commits with nothing torn.
func FuzzJournalDecode(f *testing.F) {
	for _, b := range journalSeeds(f) {
		f.Add(b)
	}
	f.Fuzz(func(t *testing.T, b []byte) {
		commits, validLen, torn, err := decodeJournal(b)
		if validLen < 0 || validLen > int64(len(b)) {
			t.Fatalf("validLen %d outside [0, %d]", validLen, len(b))
		}
		if err != nil {
			return
		}
		if torn != (validLen < int64(len(b))) {
			t.Fatalf("torn=%v but validLen %d of %d bytes", torn, validLen, len(b))
		}
		again, againLen, againTorn, err := decodeJournal(b[:validLen])
		if err != nil || againTorn || againLen != validLen {
			t.Fatalf("valid prefix re-decodes to len %d torn=%v err=%v, want len %d clean", againLen, againTorn, err, validLen)
		}
		if !reflect.DeepEqual(again, commits) {
			t.Fatalf("valid prefix re-decodes to %+v, want %+v", again, commits)
		}
	})
}
