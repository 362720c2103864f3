package core

import (
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"reflect"
	"sort"
	"strings"
	"time"

	"malnet/internal/c2"
	"malnet/internal/checkpoint"
	"malnet/internal/lake"
	"malnet/internal/obs"
	"malnet/internal/world"
)

// Durable study runs.
//
// A year-long study is a long single process; killing it used to mean
// starting over. With CheckpointConfig.Dir set, the merge goroutine
// commits a snapshot into the study's run lake after each day's batch,
// and Resume restarts a killed study from the branch head with
// byte-identical output — datasets, metrics snapshot, and journal all
// match an uninterrupted run at any worker count.
//
// A snapshot does NOT serialize the world: the world is regenerated
// from the seed and the shared clock is run forward to the snapshot
// instant with event journaling off. That replay reproduces everything
// that is a pure function of (seed, absolute time) — server duty-cycle
// flips, probe rounds and their aggregates — and the snapshot then
// overwrites the small set of state that is not: the datasets, the two
// metrics registries, per-pair connection counters (the fault plan's
// schedule coordinate), attack-chain positions, and the journal
// cursor. Intel needs neither: its C2 registrations come with the
// generated world and a sample scan is a pure function of the sample.
// See DESIGN.md "Durable runs" for what is deliberately left out
// (ephemeral ports, the ground-truth Issued log) and why that is
// invisible to study output.

// CheckpointConfig makes a study durable.
type CheckpointConfig struct {
	// Dir is the study's run lake (internal/lake), laid out on first
	// use. Empty disables checkpointing.
	Dir string
	// Branch is the lake branch the commits land on ("main" when
	// empty); Run is the run name they record ("seed-<seed>").
	Branch, Run string
	// Every writes a snapshot after every Every-th non-empty day
	// batch; 0 or 1 means every batch.
	Every int
	// Resume restarts from the newest snapshot on Branch when one
	// exists. The snapshot's config fingerprint must match the current
	// run; a mismatch fails loudly naming the fields.
	Resume bool
	// OnCheckpoint, when set, runs after each snapshot is committed,
	// with the path of its lake object; an error fails the day's
	// checkpoint, not the study's data. Like the rest of
	// CheckpointConfig it is outside the config fingerprint
	// (StudyConfig.Durability is json:"-").
	OnCheckpoint func(day int, path string) error
}

// fingerprintData is the config surface a snapshot is only valid
// for: the world config, the study config's canonical serialization
// (StudyConfig's json.Marshal — which excludes Workers, callbacks,
// and checkpoint paths by struct-tag construction, exactly the knobs
// deterministic output does not depend on), and whether a journal is
// attached (journaling decides whether events are retained at all).
type fingerprintData struct {
	World   world.Config `json:"world"`
	Study   StudyConfig  `json:"study"`
	Journal bool         `json:"journal"`
}

// fingerprint serializes the study's config surface. Computed after
// RunStudyContext's defaulting, so explicit-but-default flags
// fingerprint the same as omitted ones.
func (st *Study) fingerprint() []byte {
	b, err := json.Marshal(fingerprintData{
		World:   st.W.Cfg,
		Study:   st.Cfg,
		Journal: st.obs.Journal != nil,
	})
	if err != nil {
		panic("core: fingerprint not marshalable: " + err.Error())
	}
	return b
}

// fingerprintDiff names the fields on which two fingerprints differ,
// dotted-path style ("world.TotalSamples", "seed"), sorted.
func fingerprintDiff(a, b []byte) []string {
	var am, bm map[string]any
	if json.Unmarshal(a, &am) != nil || json.Unmarshal(b, &bm) != nil {
		return []string{"(unparsable fingerprint)"}
	}
	var out []string
	diffMaps("", am, bm, &out)
	sort.Strings(out)
	return out
}

func diffMaps(prefix string, a, b map[string]any, out *[]string) {
	keys := map[string]bool{}
	for k := range a {
		keys[k] = true
	}
	for k := range b {
		keys[k] = true
	}
	for k := range keys {
		path := k
		if prefix != "" {
			path = prefix + "." + k
		}
		av, aok := a[k]
		bv, bok := b[k]
		if !aok || !bok {
			*out = append(*out, path)
			continue
		}
		if an, aIsMap := av.(map[string]any); aIsMap {
			if bn, bIsMap := bv.(map[string]any); bIsMap {
				diffMaps(path, an, bn, out)
				continue
			}
		}
		if !reflect.DeepEqual(av, bv) {
			*out = append(*out, path)
		}
	}
}

// CheckpointMeta is the snapshot's scalar state. Exported for the
// read side (the serving layer shows day/progress next to the data).
type CheckpointMeta struct {
	// Day is the snapshot's day index (days since world.StudyStart).
	Day int `json:"day"`
	// ClockNow is the shared clock at the end of the day's batch.
	ClockNow time.Time `json:"clock_now"`
	// Merge-goroutine tallies.
	Processed    int `json:"processed"`
	Rejected     int `json:"rejected"`
	FilteredArch int `json:"filtered_arch"`
	// Journal cursor (zero when no journal is attached).
	JournalNextID int64 `json:"journal_next_id"`
	JournalBytes  int64 `json:"journal_bytes"`
}

// CheckpointDatasets is the snapshot's dataset state (D-PC2 is
// absent: probing aggregates are rebuilt by replay), stored in the
// binary datasets.bin section (datasets.go). The JSON tags are for the
// readers that render it as JSON.
type CheckpointDatasets struct {
	Samples  []*SampleRecord      `json:"samples"`
	C2s      map[string]*C2Record `json:"c2s"`
	Exploits []ExploitFinding     `json:"exploits"`
	DDoS     []DDoSObservation    `json:"ddos"`
}

// The two binary sections: the world network's connection-counter
// table in simnet's layout, and the datasets in datasets.go's.
const (
	connSeqSection  = "conn-seq.bin"
	datasetsSection = "datasets.bin"
)

// readDatasets decodes a snapshot's datasets.bin section. A snapshot
// without one, such as one whose datasets are the JSON section of an
// older build, is refused.
func readDatasets(f *checkpoint.File) (CheckpointDatasets, error) {
	b, found := f.Section(datasetsSection)
	if !found {
		return CheckpointDatasets{}, fmt.Errorf("checkpoint: section %q missing", datasetsSection)
	}
	return decodeDatasets(b)
}

// dayIndex is a study day's position in the calendar.
func dayIndex(day time.Time) int {
	return int(day.Sub(world.StudyStart()).Hours() / 24)
}

// skippedCorrupt counts the commits a resume walked back past. A
// damaged object is environmental, not study output, so the counter
// exists only when a walk-back happened and no snapshot carries it.
const skippedCorrupt = "checkpoint.skipped_corrupt"

// runLake returns the run lake at Durability.Dir, opening it when the
// study holds none for that directory. lake.Open lays a lake out in
// any directory, so a directory that holds something else, such as
// an older build's checkpoint files, is refused instead: the study
// would neither read it nor leave it as it was.
func (st *Study) runLake() (*lake.Lake, error) {
	if dir := st.Cfg.Durability.Dir; st.lake == nil || st.lakeDir != dir {
		if !lake.IsLake(dir) && !emptyDir(dir) {
			return nil, fmt.Errorf("%s is not a run lake (no journal.lake) and is not empty", dir)
		}
		lk, err := lake.Open(dir)
		if err != nil {
			return nil, err
		}
		st.lake, st.lakeDir = lk, dir
	}
	return st.lake, nil
}

// emptyDir reports whether dir has no entries. A directory that does
// not exist, which lake.Open creates, counts as empty.
func emptyDir(dir string) bool {
	f, err := os.Open(dir)
	if err != nil {
		return errors.Is(err, fs.ErrNotExist)
	}
	defer f.Close()
	_, err = f.Readdirnames(1)
	return err == io.EOF
}

// saveCheckpoint snapshots the study after dayIdx's batch and commits
// it into the study's run lake. Runs on the merge goroutine, so every
// field it reads is quiescent. The journal is flushed first: Rewind
// truncates the trace file to the checkpointed byte count, which is
// only meaningful if those bytes had reached the file. Two Wall stages
// time it: checkpoint.write (sections, encode, lake commit) and
// checkpoint.publish (the OnCheckpoint callback).
func (st *Study) saveCheckpoint(dayIdx int) error {
	fail := func(err error) error {
		return fmt.Errorf("checkpoint day %d: %w", dayIdx, err)
	}
	stop := st.obs.Wall.Timer("checkpoint.write")
	if j := st.obs.Journal; j != nil {
		if err := j.Flush(); err != nil {
			return fail(err)
		}
	}
	meta := CheckpointMeta{
		Day:          dayIdx,
		ClockNow:     st.W.Clock.Now(),
		Processed:    st.processed,
		Rejected:     st.Rejected,
		FilteredArch: st.FilteredArch,
	}
	meta.JournalNextID, meta.JournalBytes = st.obs.Journal.Cursor()

	chains := map[string][]c2.ChainState{}
	for addr, srv := range st.W.Servers {
		if cs := srv.AttackChains(); len(cs) > 0 {
			chains[addr] = cs
		}
	}
	metrics := st.obs.Root.Registry().Export()
	delete(metrics.Counters, skippedCorrupt)

	f := &checkpoint.File{}
	f.Add("fingerprint", st.fingerprint())
	for _, s := range []struct {
		name string
		v    any
	}{
		{"meta", meta},
		{"metrics", metrics},
		{"world-metrics", st.W.Net.Obs().Registry().Export()},
		{"attack-chains", chains},
	} {
		if err := f.AddJSON(s.name, s.v); err != nil {
			return fail(err)
		}
	}
	st.datasetsBuf = appendDatasets(st.datasetsBuf[:0], &CheckpointDatasets{
		Samples: st.Samples, C2s: st.C2s,
		Exploits: st.Exploits, DDoS: st.DDoS,
	})
	f.Add(datasetsSection, st.datasetsBuf)
	f.Add(connSeqSection, st.W.Net.AppendConnSeqs(nil))
	lk, err := st.runLake()
	if err != nil {
		return fail(err)
	}
	d := st.Cfg.Durability
	c, err := lk.Commit(d.Branch, d.Run, st.W.Cfg.Seed, dayIdx, checkpoint.Encode(f))
	if err != nil {
		return fail(err)
	}
	stop()
	if cb := d.OnCheckpoint; cb != nil {
		stop = st.obs.Wall.Timer("checkpoint.publish")
		err := cb(dayIdx, lk.ObjectPath(c.Snapshot))
		stop()
		if err != nil {
			return fail(err)
		}
	}
	return nil
}

// resumeFromCheckpoint restores the newest snapshot on the study's
// lake branch, returning its day index, or -1 when the branch has none
// (the study then runs from the start). A commit whose object is
// missing or fails its footer is passed over for its parent and
// counted in checkpoint.skipped_corrupt, so a damaged head costs one
// day, not the study. Called once, before the daily loop, with the
// world freshly generated and the probing schedule already on the
// clock.
func (st *Study) resumeFromCheckpoint() (int, error) {
	lk, err := st.runLake()
	if err != nil {
		return -1, fmt.Errorf("resume: %w", err)
	}
	log, err := lk.Log(st.Cfg.Durability.Branch)
	if err != nil {
		return -1, fmt.Errorf("resume: %w", err)
	}
	var (
		f       *checkpoint.File
		path    string
		skipped int
	)
	for _, c := range log {
		path = lk.ObjectPath(c.Snapshot)
		if f, err = checkpoint.ReadFile(path); err == nil && f.SumHex() == c.Snapshot {
			break
		}
		f = nil
		skipped++
	}
	// Counted on the way out, after the registry Restore below, which
	// would wipe it.
	defer func() {
		if skipped > 0 {
			st.obs.Root.Counter(skippedCorrupt).Add(int64(skipped))
		}
	}()
	if f == nil {
		return -1, nil
	}
	have, found := f.Section("fingerprint")
	if !found {
		return -1, fmt.Errorf("resume: %s has no config fingerprint", path)
	}
	if want := st.fingerprint(); !bytes.Equal(have, want) {
		return -1, fmt.Errorf("resume: %s was written by a differently configured run; differing fields: %s",
			path, strings.Join(fingerprintDiff(have, want), ", "))
	}
	var (
		meta         CheckpointMeta
		metrics      obs.MetricsDump
		worldMetrics obs.MetricsDump
		chains       map[string][]c2.ChainState
	)
	for _, s := range []struct {
		name string
		v    any
	}{
		{"meta", &meta},
		{"metrics", &metrics},
		{"world-metrics", &worldMetrics},
		{"attack-chains", &chains},
	} {
		if err := f.JSON(s.name, s.v); err != nil {
			return -1, fmt.Errorf("resume: %s: %w", path, err)
		}
	}
	ds, err := readDatasets(f)
	if err != nil {
		return -1, fmt.Errorf("resume: %s: %w", path, err)
	}
	seqs, found := f.Section(connSeqSection)
	if !found {
		return -1, fmt.Errorf("resume: %s: checkpoint: section %q missing", path, connSeqSection)
	}

	// Re-anchor the attack chains before replaying: the generated
	// world's chains fire at their planned times, but whether a live
	// window's bot was there to take the command is history replay
	// does not rerun. The snapshot's chain positions are that
	// history's outcome; arm them and cancel the planned schedule.
	for addr, srv := range st.W.Servers {
		srv.RestoreAttackChains(chains[addr])
	}

	// Replay with event journaling off: every event the replay would
	// record was already journaled (and drained per batch) before the
	// snapshot's cursor.
	wobs := st.W.Net.Obs()
	wobs.EnableEvents(false)
	st.W.Clock.RunUntil(meta.ClockNow)
	wobs.DrainEvents()
	wobs.EnableEvents(st.obs.Journal != nil)

	// Replay reproduced the pure-function state; overwrite the rest.
	if err := restoreMetrics(st.obs.Root.Registry(), wobs.Registry(), metrics, worldMetrics); err != nil {
		return -1, fmt.Errorf("resume: %s: %w", path, err)
	}
	if err := st.W.Net.RestoreConnSeqs(seqs); err != nil {
		return -1, fmt.Errorf("resume: %s: %w", path, err)
	}
	st.Samples, st.Exploits, st.DDoS = ds.Samples, ds.Exploits, ds.DDoS
	st.C2s = ds.C2s
	if st.C2s == nil {
		st.C2s = map[string]*C2Record{}
	}
	st.Rejected, st.FilteredArch = meta.Rejected, meta.FilteredArch
	st.processed, st.lastProgress = meta.Processed, meta.Processed
	if j := st.obs.Journal; j != nil {
		if err := j.Rewind(meta.JournalNextID, meta.JournalBytes); err != nil {
			return -1, fmt.Errorf("resume: %w", err)
		}
	}
	return meta.Day, nil
}

// restoreMetrics restores a snapshot's two metric dumps into the
// study-plane and world-plane registries, and checks that the world
// plane merges under "world." as a finished study's Metrics() merges
// it. The footer is a checksum, not a signature, so the dumps are
// checked like any other bytes from disk; the error names the
// histogram whose buckets do not fit. The study's own histograms are
// created first, so a dump that holds one with other bounds, which
// the next merged batch could not add to, is refused too.
func restoreMetrics(root, world *obs.Registry, metrics, worldMetrics obs.MetricsDump) error {
	root.Histogram(eventsPerRun, eventBudgetBuckets)
	if err := root.Restore(metrics); err != nil {
		return err
	}
	if err := world.Restore(worldMetrics); err != nil {
		return err
	}
	for name, h := range worldMetrics.Hists {
		if dst, found := metrics.Hists["world."+name]; found && len(dst.Counts) != len(h.Counts) {
			return fmt.Errorf("checkpoint: histogram %q: %d bucket counts, cannot merge the world plane's %d", "world."+name, len(dst.Counts), len(h.Counts))
		}
	}
	return nil
}

// StudySnapshot is the read-only view of a checkpointed study, the
// serving layer's unit of ingest. Unlike resume it does not replay a
// world: it carries exactly what the snapshot recorded — the four
// datasets, the scalar meta, and the two metric registries' dumps —
// plus the content-addressed generation id the response cache keys
// on.
type StudySnapshot struct {
	// Day is the snapshot's study-day index.
	Day int
	// Generation is the snapshot file's SHA-256 integrity footer in
	// hex: two byte-identical snapshots (e.g. the same study run at
	// different worker counts) share a generation.
	Generation string

	Meta     CheckpointMeta
	Datasets CheckpointDatasets
}

// OpenSnapshotAt loads one checkpoint file for read-only serving —
// in malnetd, a run lake's content-addressed object. The day comes
// from the snapshot's own meta (lake object names carry no day). The
// returned metrics registry is reconstructed the way a finished
// study's Metrics() would read: the checkpointed study-plane
// registry, the dataset-size gauges, and the world-plane registry
// merged under the "world." prefix.
func OpenSnapshotAt(path string) (*StudySnapshot, *obs.Registry, error) {
	f, err := checkpoint.ReadFile(path)
	if err != nil {
		return nil, nil, fmt.Errorf("open snapshot: %s: %w", path, err)
	}
	ss, reg, err := openSnapshot(f)
	if err != nil {
		return nil, nil, fmt.Errorf("open snapshot: %s: %w", path, err)
	}
	return ss, reg, nil
}

// openSnapshot is OpenSnapshotAt on a decoded file.
func openSnapshot(f *checkpoint.File) (*StudySnapshot, *obs.Registry, error) {
	ss := &StudySnapshot{Generation: f.SumHex()}
	var metrics, worldMetrics obs.MetricsDump
	for _, s := range []struct {
		name string
		v    any
	}{
		{"meta", &ss.Meta},
		{"metrics", &metrics},
		{"world-metrics", &worldMetrics},
	} {
		if err := f.JSON(s.name, s.v); err != nil {
			return nil, nil, err
		}
	}
	var err error
	if ss.Datasets, err = readDatasets(f); err != nil {
		return nil, nil, err
	}
	ss.Day = ss.Meta.Day
	if ss.Datasets.C2s == nil {
		ss.Datasets.C2s = map[string]*C2Record{}
	}
	reg, wreg := obs.NewRegistry(), obs.NewRegistry()
	if err := restoreMetrics(reg, wreg, metrics, worldMetrics); err != nil {
		return nil, nil, err
	}
	reg.Gauge("study.samples").Set(int64(len(ss.Datasets.Samples)))
	reg.Gauge("study.c2s").Set(int64(len(ss.Datasets.C2s)))
	reg.Gauge("study.exploit_findings").Set(int64(len(ss.Datasets.Exploits)))
	reg.Gauge("study.ddos_observations").Set(int64(len(ss.Datasets.DDoS)))
	reg.MergePrefixed("world.", wreg)
	return ss, reg, nil
}
