package core

import (
	"bytes"
	"encoding/json"
	"fmt"
	"reflect"
	"sort"
	"strings"
	"time"

	"malnet/internal/c2"
	"malnet/internal/checkpoint"
	"malnet/internal/obs"
	"malnet/internal/world"
)

// Durable study runs.
//
// A year-long study is a long single process; killing it used to mean
// starting over. With CheckpointConfig.Dir set, the merge goroutine
// writes a snapshot after each day's batch, and Resume restarts a
// killed study from the newest snapshot with byte-identical output —
// datasets, metrics snapshot, and journal all match an uninterrupted
// run at any worker count.
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
	// Dir is where snapshots are written (one file per checkpointed
	// day, older days pruned). Empty disables checkpointing.
	Dir string
	// Every writes a snapshot after every Every-th non-empty day
	// batch; 0 or 1 means every batch.
	Every int
	// Resume restarts from the newest snapshot in Dir when one
	// exists. The snapshot's config fingerprint must match the
	// current run; a mismatch fails loudly naming the fields.
	Resume bool
	// OnCheckpoint, when set, runs after each snapshot is durably on
	// disk (written, fsync'd, and older days pruned). The study uses
	// it to publish snapshots into a run lake; an error fails the
	// day's checkpoint, not the study's data. Excluded from the config
	// fingerprint along with the rest of CheckpointConfig
	// (StudyConfig.Durability is json:"-"): publication side effects
	// do not change study output.
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
// absent: probing aggregates are rebuilt by replay).
type CheckpointDatasets struct {
	Samples  []*SampleRecord      `json:"samples"`
	C2s      map[string]*C2Record `json:"c2s"`
	Exploits []ExploitFinding     `json:"exploits"`
	DDoS     []DDoSObservation    `json:"ddos"`
}

// connSeqSection names the world network's connection-counter table,
// stored raw in simnet's binary layout rather than as JSON.
const connSeqSection = "conn-seq.bin"

// dayIndex is a study day's position in the calendar.
func dayIndex(day time.Time) int {
	return int(day.Sub(world.StudyStart()).Hours() / 24)
}

// saveCheckpoint snapshots the study after dayIdx's batch. Runs on
// the merge goroutine, so every field it reads is quiescent. The
// journal is flushed first: Rewind truncates the trace file to the
// checkpointed byte count, which is only meaningful if those bytes
// had reached the file.
func (st *Study) saveCheckpoint(dayIdx int) error {
	fail := func(err error) error {
		return fmt.Errorf("checkpoint day %d: %w", dayIdx, err)
	}
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

	f := &checkpoint.File{}
	f.Add("fingerprint", st.fingerprint())
	for _, s := range []struct {
		name string
		v    any
	}{
		{"meta", meta},
		{"datasets", CheckpointDatasets{
			Samples: st.Samples, C2s: st.C2s,
			Exploits: st.Exploits, DDoS: st.DDoS,
		}},
		{"metrics", st.obs.Root.Registry().Export()},
		{"world-metrics", st.W.Net.Obs().Registry().Export()},
		{"attack-chains", chains},
	} {
		if err := f.AddJSON(s.name, s.v); err != nil {
			return fail(err)
		}
	}
	f.Add(connSeqSection, st.W.Net.AppendConnSeqs(nil))
	path := checkpoint.DayPath(st.Cfg.Durability.Dir, dayIdx)
	if err := checkpoint.WriteFile(path, f); err != nil {
		return fail(err)
	}
	if err := checkpoint.Prune(st.Cfg.Durability.Dir, dayIdx); err != nil {
		return fail(err)
	}
	if cb := st.Cfg.Durability.OnCheckpoint; cb != nil {
		if err := cb(dayIdx, path); err != nil {
			return fail(err)
		}
	}
	return nil
}

// resumeFromCheckpoint restores the newest valid snapshot in the
// checkpoint dir, returning its day index, or -1 when the dir holds
// none (the study then runs from the start). Called once, before the
// daily loop, with the world freshly generated and the probing
// schedule already on the clock.
func (st *Study) resumeFromCheckpoint() (int, error) {
	snap, skipped, err := checkpoint.Latest(st.Cfg.Durability.Dir)
	if err != nil {
		return -1, fmt.Errorf("resume: %w", err)
	}
	// Corrupt snapshots are environmental, not part of the study's
	// deterministic output, so the counter only exists when the
	// fallback actually fired — a clean resume's metrics snapshot
	// stays byte-identical to an uninterrupted run's. Logged again
	// after the registry Restore below, which would wipe it.
	logSkipped := func() {
		if skipped > 0 {
			st.obs.Root.Counter("checkpoint.skipped_corrupt").Add(int64(skipped))
		}
	}
	if snap == nil {
		logSkipped()
		return -1, nil
	}
	f, path := snap.File, snap.Path
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
		ds           CheckpointDatasets
		metrics      obs.MetricsDump
		worldMetrics obs.MetricsDump
		chains       map[string][]c2.ChainState
	)
	for _, s := range []struct {
		name string
		v    any
	}{
		{"meta", &meta},
		{"datasets", &ds},
		{"metrics", &metrics},
		{"world-metrics", &worldMetrics},
		{"attack-chains", &chains},
	} {
		if err := f.JSON(s.name, s.v); err != nil {
			return -1, fmt.Errorf("resume: %s: %w", path, err)
		}
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
	st.obs.Root.Registry().Restore(metrics)
	wobs.Registry().Restore(worldMetrics)
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
	logSkipped()
	return meta.Day, nil
}

// StudySnapshot is the read-only view of a checkpointed study, the
// serving layer's unit of ingest. Unlike resume it does not replay a
// world: it carries exactly what the snapshot recorded — the four
// datasets, the scalar meta, and the two metric registries' dumps —
// plus the content-addressed generation id the response cache keys
// on.
type StudySnapshot struct {
	// Path is the file the snapshot was read from; Day is its
	// study-day index.
	Path string
	Day  int
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
	ss := &StudySnapshot{
		Path:       path,
		Generation: f.SumHex(),
	}
	var metrics, worldMetrics obs.MetricsDump
	for _, s := range []struct {
		name string
		v    any
	}{
		{"meta", &ss.Meta},
		{"datasets", &ss.Datasets},
		{"metrics", &metrics},
		{"world-metrics", &worldMetrics},
	} {
		if err := f.JSON(s.name, s.v); err != nil {
			return nil, nil, fmt.Errorf("open snapshot: %s: %w", path, err)
		}
	}
	ss.Day = ss.Meta.Day
	if ss.Datasets.C2s == nil {
		ss.Datasets.C2s = map[string]*C2Record{}
	}
	reg := obs.NewRegistry()
	reg.Restore(metrics)
	reg.Gauge("study.samples").Set(int64(len(ss.Datasets.Samples)))
	reg.Gauge("study.c2s").Set(int64(len(ss.Datasets.C2s)))
	reg.Gauge("study.exploit_findings").Set(int64(len(ss.Datasets.Exploits)))
	reg.Gauge("study.ddos_observations").Set(int64(len(ss.Datasets.DDoS)))
	wreg := obs.NewRegistry()
	wreg.Restore(worldMetrics)
	reg.MergePrefixed("world.", wreg)
	return ss, reg, nil
}
