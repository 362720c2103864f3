package checkpoint

import (
	"bytes"
	"os"
	"testing"
)

func sampleFile() *File {
	f := &File{}
	f.Add("meta", []byte(`{"day":12}`))
	f.Add("datasets", bytes.Repeat([]byte("abc"), 1000))
	f.Add("empty", nil)
	return f
}

func TestRoundTrip(t *testing.T) {
	f := sampleFile()
	got, err := Decode(Encode(f))
	if err != nil {
		t.Fatalf("Decode: %v", err)
	}
	if len(got.Sections) != len(f.Sections) {
		t.Fatalf("sections: got %d want %d", len(got.Sections), len(f.Sections))
	}
	for i, s := range f.Sections {
		if got.Sections[i].Name != s.Name || !bytes.Equal(got.Sections[i].Data, s.Data) {
			t.Errorf("section %d: got %q/%d bytes, want %q/%d bytes",
				i, got.Sections[i].Name, len(got.Sections[i].Data), s.Name, len(s.Data))
		}
	}
	if _, ok := got.Section("missing"); ok {
		t.Error("Section(missing) reported present")
	}
}

func TestJSONSections(t *testing.T) {
	f := &File{}
	type payload struct{ A, B int }
	if err := f.AddJSON("p", payload{A: 1, B: 2}); err != nil {
		t.Fatal(err)
	}
	got, err := Decode(Encode(f))
	if err != nil {
		t.Fatal(err)
	}
	var p payload
	if err := got.JSON("p", &p); err != nil {
		t.Fatal(err)
	}
	if p.A != 1 || p.B != 2 {
		t.Fatalf("round-tripped payload: %+v", p)
	}
	if err := got.JSON("absent", &p); err == nil {
		t.Error("JSON(absent) did not error")
	}
}

// TestFooterRejectsBitFlips flips every byte of an encoded snapshot
// in turn; the decoder must refuse each mutation (a flip inside the
// footer breaks the hash comparison, a flip in the body breaks the
// recomputed hash).
func TestFooterRejectsBitFlips(t *testing.T) {
	enc := Encode(sampleFile())
	for i := range enc {
		mut := append([]byte(nil), enc...)
		mut[i] ^= 0x40
		if _, err := Decode(mut); err == nil {
			t.Fatalf("decode accepted snapshot with byte %d flipped", i)
		}
	}
}

func TestDecodeTruncated(t *testing.T) {
	enc := Encode(sampleFile())
	for n := 0; n < len(enc); n += 7 {
		if _, err := Decode(enc[:n]); err == nil {
			t.Fatalf("decode accepted %d-byte truncation", n)
		}
	}
}

// TestWriteFileAtomic: WriteFile replaces a file whole, leaves no
// temp file behind, and the file read back carries the footer as its
// Sum.
func TestWriteFileAtomic(t *testing.T) {
	dir := t.TempDir()
	path := DayPath(dir, 29)
	for _, day := range []byte{17, 29} {
		f := &File{}
		f.Add("meta", []byte{day})
		if err := WriteFile(path, f); err != nil {
			t.Fatalf("WriteFile day %d: %v", day, err)
		}
	}
	got, err := ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if b, _ := got.Section("meta"); len(b) != 1 || b[0] != 29 {
		t.Fatalf("rewritten checkpoint content: %v", b)
	}
	raw, err := os.ReadFile(path)
	if err != nil {
		t.Fatal(err)
	}
	if want := raw[len(raw)-32:]; !bytes.Equal(got.Sum[:], want) {
		t.Fatalf("Sum = %x, want file footer %x", got.Sum, want)
	}
	if entries, err := os.ReadDir(dir); err != nil || len(entries) != 1 {
		t.Fatalf("directory holds %d entries (err=%v), want the one checkpoint", len(entries), err)
	}

	// World-readable: os.CreateTemp's 0600 would stop a daemon running
	// as a different user from mounting the snapshot.
	fi, err := os.Stat(path)
	if err != nil {
		t.Fatal(err)
	}
	if fi.Mode().Perm() != 0o644 {
		t.Fatalf("checkpoint mode %v, want 0644", fi.Mode().Perm())
	}
}

// FuzzCheckpointDecode asserts the decoder's contract: arbitrary
// bytes never panic it, and any mutation of a valid snapshot is
// rejected by the integrity footer.
func FuzzCheckpointDecode(f *testing.F) {
	f.Add(Encode(sampleFile()))
	f.Add([]byte{})
	f.Add([]byte("MALCKPT\x01"))
	f.Fuzz(func(t *testing.T, b []byte) {
		file, err := Decode(b)
		if err != nil {
			return
		}
		// Anything that decodes must re-encode to the same bytes
		// (canonical form) — and in particular must carry a valid
		// footer, so a fuzzer "success" is a genuine round trip.
		if !bytes.Equal(Encode(file), b) {
			t.Fatalf("decode/encode not a round trip for %d-byte input", len(b))
		}
	})
}
