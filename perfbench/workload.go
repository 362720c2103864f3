package main

import (
	"context"
	"errors"
	"fmt"
	"net"
	"net/http"
	"os"
	"path/filepath"
	"time"

	"malnet/internal/checkpoint"
	"malnet/internal/core"
	"malnet/internal/lake"
	"malnet/internal/obs"
	"malnet/internal/obs/redplane"
	"malnet/internal/serve"
	"malnet/internal/world"
)

// workload is one input set. Both workloads run the same daily
// pipeline — generate a world, run the -short study, commit a snapshot
// into a run lake, mount the lake in malnetd's handler and read it over
// loopback — so each reports every end-to-end metric. They differ in
// how the study publishes and in what the reads race against.
type workload struct {
	name string
	// rate is the nominal open-loop arrival rate, in requests per second.
	rate float64
	// reload makes the study durable — a checkpoint after every day
	// batch, each committed into a run lake, as cmd/malnet
	// -checkpoint-dir -lake-dir runs it — and has a writer advance the
	// served lake's head about once a second while the reads run.
	reload bool
}

var workloads = []workload{
	// One fixed generation: the response cache, HTTP and encode paths
	// dominate. The schedule's ~20k distinct keys exceed the cache's
	// 4096 entries; the nominal phase fills the cache toward its
	// clear-on-full cliff and the ladder crosses it. On two shared cores
	// a higher nominal rate made the tail measure queueing at the two
	// connections more than the server. The study checkpoints once,
	// after its last batch, so its study_s is the analysis alone.
	{name: "serve_zipf", rate: 2500},
	// Reads beside writes: each new generation is opened, built and
	// column-encoded while reads run, and starts with a cold cache; the
	// study's checkpoint and lake commit per day batch are in study_s.
	{name: "serve_reload", rate: 2000, reload: true},
}

func workloadNames() []string {
	names := make([]string, len(workloads))
	for i, w := range workloads {
		names[i] = w.name
	}
	return names
}

func lookupWorkload(name string) (workload, bool) {
	for _, w := range workloads {
		if w.name == name {
			return w, true
		}
	}
	return workload{}, false
}

const (
	// shortSamples and shortProbeRounds size the study as cmd/malnet
	// -short does.
	shortSamples     = 150
	shortProbeRounds = 12
	lakeBranch       = "main"
)

// runConfig is what one invocation measures with.
type runConfig struct {
	// seed draws the query schedule. The world is the same on every
	// run — the -short feed at worldSeed, whose study digest
	// pinned.json holds — so the study does the same work each time
	// and every run checks the pinned digest.
	seed      int64
	worldSeed int64
	seconds   int
	workers   int // study worker pool
	senders   int // load-generator connections
	work      string
}

// ladderSteps is how many one-second steps the capacity ladder takes:
// half the timed phase, at most maxLadderSteps.
func (c runConfig) ladderSteps() int { return min(c.seconds/2, maxLadderSteps) }

// nominal is the rest of the timed phase, at the workload's nominal
// rate.
func (c runConfig) nominal() time.Duration {
	return time.Duration(c.seconds-c.ladderSteps()) * time.Second
}

func runName(seed int64) string { return fmt.Sprintf("seed-%d", seed) }

// studyRun is one core.RunStudyContext with what the benchmark saw of
// it.
type studyRun struct {
	observer       *obs.Observer
	metrics        *obs.Registry // the study's deterministic registry
	world, wall    time.Duration // world.Generate; RunStudyContext
	mem            memStats      // Go runtime deltas across RunStudyContext
	digest         string
	ckptCount      int
	ckptBytes      int64
	commits        []time.Duration // lake.CommitFile calls made from OnCheckpoint
	committedBytes int64
	snaps          []snapshotRef // durable: every committed generation; otherwise the one checkpoint
}

// snapshotRef locates one written snapshot.
type snapshotRef struct {
	day  int
	path string
}

// runStudy generates the world for seed and runs the -short study on
// it. A reload workload's study is durable: it checkpoints after every
// day batch and commits each checkpoint into a study lake from
// OnCheckpoint. Otherwise the study checkpoints once, after its last
// batch, to have a snapshot to serve.
func runStudy(wl workload, seed int64, workers int, dir string, tr *tracer, parent int64) (*studyRun, error) {
	r := &studyRun{observer: obs.NewObserver()}
	_, endWorld := tr.begin("world.Generate", parent)
	start := time.Now()
	wcfg := world.DefaultConfig(seed)
	wcfg.TotalSamples = shortSamples
	w := world.Generate(wcfg)
	r.world = time.Since(start)
	endWorld()

	cfg := core.Defaults(seed)
	cfg.Analysis.ProbeRounds = shortProbeRounds
	cfg.Determinism.Workers = workers
	cfg.Observability.Obs = r.observer
	cfg.Durability = core.CheckpointConfig{Dir: filepath.Join(dir, "checkpoints"), Every: nonEmptyBatches(w)}
	written := func(path string) (int64, error) {
		fi, err := os.Stat(path)
		if err != nil {
			return 0, err
		}
		r.ckptCount++
		r.ckptBytes += fi.Size()
		return fi.Size(), nil
	}
	var studyID int64
	if wl.reload {
		lk, err := lake.Open(filepath.Join(dir, "study-lake"))
		if err != nil {
			return nil, err
		}
		cfg.Durability.Every = 1
		cfg.Durability.OnCheckpoint = func(day int, path string) error {
			size, err := written(path)
			if err != nil {
				return err
			}
			_, end := tr.begin("lake.CommitFile", studyID)
			start := time.Now()
			c, err := lk.CommitFile(lakeBranch, runName(seed), seed, day, path)
			r.commits = append(r.commits, time.Since(start))
			end()
			if err != nil {
				return err
			}
			r.committedBytes += size
			r.snaps = append(r.snaps, snapshotRef{day, lk.ObjectPath(c.Snapshot)})
			return nil
		}
	} else {
		cfg.Durability.OnCheckpoint = func(day int, path string) error {
			r.snaps = append(r.snaps, snapshotRef{day, path})
			_, err := written(path)
			return err
		}
	}
	studyID, endStudy := tr.begin("core.RunStudyContext", parent)
	m0 := readMem()
	start = time.Now()
	st, err := core.RunStudyContext(context.Background(), w, cfg)
	r.wall = time.Since(start)
	r.mem = readMem().since(m0)
	endStudy()
	if err != nil {
		return nil, fmt.Errorf("study: %w", err)
	}
	if len(r.snaps) == 0 {
		return nil, errors.New("study wrote no checkpoint")
	}
	r.metrics = st.Metrics()
	if r.digest, err = datasetDigest(st); err != nil {
		return nil, err
	}
	return r, nil
}

// nonEmptyBatches counts the study's non-empty day batches: a
// checkpoint interval of that many writes exactly one snapshot, after
// the last batch.
func nonEmptyBatches(w *world.World) int {
	n := 0
	for day := world.StudyStart(); day.Before(world.StudyEnd()); day = day.AddDate(0, 0, 1) {
		if len(w.FeedOn(day)) > 0 {
			n++
		}
	}
	return n
}

// fixture is one set-up: a study's snapshot committed into the served
// lake and mounted in malnetd's handler, answering on loopback.
type fixture struct {
	dir    string
	run    *studyRun
	lake   *lake.Lake
	srv    *serve.Server
	wall   *obs.Wall
	access *accessLog // traced set-ups only
	http   *http.Server
	served chan error
	base   string

	setup          time.Duration   // the whole set-up
	mount          time.Duration   // from the commit's start until serve.New returned
	mounts         []time.Duration // serve.New, then every writer Server.Reload
	commits        []time.Duration // served-lake commits
	committedBytes int64
	objects        []string      // served-lake objects, in commit order
	pending        []pendingSnap // reload: what the writer publishes, in day order
}

// pendingSnap is a snapshot the writer will publish.
type pendingSnap struct {
	day  int
	file *checkpoint.File
}

// setUp builds one fixture in dir. A reload workload mounts the
// generation `reloads` checkpoints before the study's last and
// preloads the later ones for the writer.
func setUp(wl workload, cfg runConfig, dir string, reloads int, tr *tracer) (*fixture, error) {
	id, end := tr.begin("set-up", 0)
	defer end()
	start := time.Now()
	fx := &fixture{dir: dir, wall: obs.NewWall()}
	var err error
	if fx.run, err = runStudy(wl, cfg.worldSeed, cfg.workers, dir, tr, id); err != nil {
		return nil, err
	}
	snaps := fx.run.snaps
	first := len(snaps) - 1
	if wl.reload {
		first = max(0, len(snaps)-1-reloads)
		for _, s := range snaps[first+1:] {
			f, err := checkpoint.ReadFile(s.path)
			if err != nil {
				return nil, err
			}
			fx.pending = append(fx.pending, pendingSnap{s.day, f})
		}
	}
	if fx.lake, err = lake.Open(filepath.Join(dir, "serve-lake")); err != nil {
		return nil, err
	}
	var opts []serve.Option
	if tr != nil {
		fx.access = &accessLog{}
		opts = append(opts, serve.WithRedPlane(redplane.New(redplane.Options{SlowThreshold: -1, AccessLog: fx.access})))
	}
	mountStart := time.Now()
	if err := fx.commit(snaps[first].day, snaps[first].path, cfg.worldSeed, tr, id); err != nil {
		return nil, err
	}
	_, endNew := tr.begin("serve.New", id)
	newStart := time.Now()
	fx.srv, err = serve.New(filepath.Join(dir, "serve-lake"), fx.wall, opts...)
	fx.mounts = append(fx.mounts, time.Since(newStart))
	fx.mount = time.Since(mountStart)
	endNew()
	if err != nil {
		return nil, err
	}
	ln, err := net.Listen("tcp", "127.0.0.1:0")
	if err != nil {
		return nil, err
	}
	fx.http = &http.Server{Handler: fx.srv.Handler()}
	fx.served = make(chan error, 1)
	go func() { fx.served <- fx.http.Serve(ln) }()
	fx.base = "http://" + ln.Addr().String()
	fx.setup = time.Since(start)
	return fx, nil
}

// commit publishes the checkpoint at path into the served lake.
func (fx *fixture) commit(day int, path string, seed int64, tr *tracer, parent int64) error {
	fi, err := os.Stat(path)
	if err != nil {
		return err
	}
	_, end := tr.begin("lake.CommitFile", parent)
	start := time.Now()
	c, err := fx.lake.CommitFile(lakeBranch, runName(seed), seed, day, path)
	fx.commits = append(fx.commits, time.Since(start))
	end()
	if err != nil {
		return err
	}
	fx.committedBytes += fi.Size()
	fx.objects = append(fx.objects, fx.lake.ObjectPath(c.Snapshot))
	return nil
}

// close stops the HTTP server, waits for it to return and removes the
// fixture's directory. Closing a nil or closed fixture does nothing.
func (fx *fixture) close() error {
	if fx == nil || fx.http == nil {
		return nil
	}
	ctx, cancel := context.WithTimeout(context.Background(), 10*time.Second)
	defer cancel()
	err := fx.http.Shutdown(ctx)
	if serr := <-fx.served; err == nil && !errors.Is(serr, http.ErrServerClosed) {
		err = serr
	}
	fx.http = nil
	if rerr := os.RemoveAll(fx.dir); err == nil {
		err = rerr
	}
	return err
}

// writer advances the served lake's head about once a second while
// reads run: each tick writes the next pending snapshot with
// checkpoint.WriteFile, commits it with lake.CommitFile and mounts it
// with Server.Reload — what a durable study and a polling malnetd do
// together.
type writer struct {
	fresh             []time.Duration // from the commit's start until the generation is mounted
	attempted, failed int
	notes             []string
	stop, done        chan struct{}
}

func (fx *fixture) startWriter(gens *generations, seed int64, tr *tracer, parent int64) *writer {
	wr := &writer{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(wr.done)
		tick := time.NewTicker(reloadEvery)
		defer tick.Stop()
		for _, p := range fx.pending {
			select {
			case <-wr.stop:
				return
			case <-tick.C:
			}
			wr.attempted++
			if err := fx.publish(p, gens, wr, seed, tr, parent); err != nil {
				wr.failed++
				if len(wr.notes) < 10 {
					wr.notes = append(wr.notes, fmt.Sprintf("publishing day %d: %v", p.day, err))
				}
			}
		}
	}()
	return wr
}

// finish stops the writer and waits for it.
func (wr *writer) finish() {
	close(wr.stop)
	<-wr.done
}

func (fx *fixture) publish(p pendingSnap, gens *generations, wr *writer, seed int64, tr *tracer, parent int64) error {
	path := checkpoint.DayPath(filepath.Join(fx.dir, "staging"), p.day)
	_, end := tr.begin("checkpoint.WriteFile", parent)
	err := checkpoint.WriteFile(path, p.file)
	end()
	if err != nil {
		return err
	}
	seq := gens.add(p.file.SumHex())
	start := time.Now()
	if err := fx.commit(p.day, path, seed, tr, parent); err != nil {
		return err
	}
	_, end = tr.begin("Server.Reload", parent)
	reloadStart := time.Now()
	changed, err := fx.srv.Reload()
	fx.mounts = append(fx.mounts, time.Since(reloadStart))
	end()
	if err != nil {
		return err
	}
	if !changed {
		return errors.New("the reload mounted nothing new")
	}
	wr.fresh = append(wr.fresh, time.Since(start))
	gens.mounted.Store(int64(seq))
	return nil
}
