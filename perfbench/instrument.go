package main

import (
	"bufio"
	"bytes"
	"encoding/json"
	"errors"
	"fmt"
	"io"
	"io/fs"
	"os"
	"path/filepath"
	"runtime"
	"sort"
	"strconv"
	"strings"
	"sync"
	"time"

	"malnet/internal/obs"
)

// tracer records spans around the benchmark's calls into the program's
// public entry points: name, start, end and parent. Spans stay in
// memory and are written out once, when the run ends. A nil tracer
// records nothing, which is how untraced passes run.
type tracer struct {
	epoch time.Time
	mu    sync.Mutex
	spans []span
}

// span is one recorded call; times are nanoseconds since the tracer
// started.
type span struct {
	ID     int64  `json:"id"`
	Parent int64  `json:"parent,omitempty"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

func newTracer() *tracer { return &tracer{epoch: time.Now()} }

// begin opens a span named name under parent (0 for none) and returns
// its ID and the function that closes it.
func (t *tracer) begin(name string, parent int64) (int64, func()) {
	if t == nil {
		return 0, func() {}
	}
	t.mu.Lock()
	id := int64(len(t.spans)) + 1
	t.spans = append(t.spans, span{ID: id, Parent: parent, Name: name, Start: int64(time.Since(t.epoch))})
	t.mu.Unlock()
	return id, func() {
		end := int64(time.Since(t.epoch))
		t.mu.Lock()
		t.spans[id-1].End = end
		t.mu.Unlock()
	}
}

// write stores the spans at path, one JSON object a line.
func (t *tracer) write(path string) (int, error) {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return 0, err
	}
	fh, err := os.Create(path)
	if err != nil {
		return 0, err
	}
	t.mu.Lock()
	defer t.mu.Unlock()
	bw := bufio.NewWriter(fh)
	enc := json.NewEncoder(bw)
	for _, s := range t.spans {
		if err := enc.Encode(s); err != nil {
			fh.Close()
			return 0, err
		}
	}
	if err := bw.Flush(); err != nil {
		fh.Close()
		return 0, err
	}
	return len(t.spans), fh.Close()
}

// accessLog keeps the red plane's access-log lines, one JSON object
// per finished request, written while it is armed: a traced pass arms
// it for the nominal phase.
type accessLog struct {
	mu    sync.Mutex
	armed bool
	buf   bytes.Buffer
}

func (a *accessLog) Write(p []byte) (int, error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	if a.armed {
		a.buf.Write(p)
	}
	return len(p), nil
}

func (a *accessLog) arm(on bool) {
	if a == nil {
		return
	}
	a.mu.Lock()
	a.armed = on
	a.mu.Unlock()
}

// service summarises the logged requests: their service times in
// milliseconds, sorted, and the mean rows scanned and bytes written
// per request.
func (a *accessLog) service() (durMs []float64, rowsPerReq, bytesPerReq float64, err error) {
	a.mu.Lock()
	defer a.mu.Unlock()
	var rows, size int64
	dec := json.NewDecoder(bytes.NewReader(a.buf.Bytes()))
	for {
		var rec struct {
			Rows  int64 `json:"rows"`
			Bytes int64 `json:"bytes"`
			DurNs int64 `json:"dur_ns"`
		}
		if err := dec.Decode(&rec); errors.Is(err, io.EOF) {
			break
		} else if err != nil {
			return nil, 0, 0, fmt.Errorf("access log: %w", err)
		}
		durMs = append(durMs, float64(rec.DurNs)/1e6)
		rows += rec.Rows
		size += rec.Bytes
	}
	if n := float64(len(durMs)); n > 0 {
		rowsPerReq, bytesPerReq = float64(rows)/n, float64(size)/n
	}
	sort.Float64s(durMs)
	return durMs, rowsPerReq, bytesPerReq, nil
}

// rssSampler tracks the process's peak resident set size, read from
// /proc/self/statm every few milliseconds, so each pass of a run has a
// peak of its own.
type rssSampler struct {
	once       sync.Once
	stop, done chan struct{}
	peak       int64 // bytes; written by the sampling goroutine until done closes
}

func startRSS() *rssSampler {
	s := &rssSampler{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(s.done)
		tick := time.NewTicker(5 * time.Millisecond)
		defer tick.Stop()
		for {
			s.peak = max(s.peak, residentBytes())
			select {
			case <-s.stop:
				return
			case <-tick.C:
			}
		}
	}()
	return s
}

// finish stops the sampler and returns the peak in megabytes. It may be
// called more than once.
func (s *rssSampler) finish() float64 {
	s.once.Do(func() { close(s.stop) })
	<-s.done
	return float64(s.peak) / 1e6
}

func residentBytes() int64 {
	b, err := os.ReadFile("/proc/self/statm")
	if err != nil {
		return 0
	}
	f := strings.Fields(string(b))
	if len(f) < 2 {
		return 0
	}
	pages, err := strconv.ParseInt(f[1], 10, 64)
	if err != nil {
		return 0
	}
	return pages * int64(os.Getpagesize())
}

// memStats is the part of runtime.MemStats the benchmark reports as
// deltas.
type memStats struct {
	alloc, mallocs, pauseNs uint64
	gcs                     uint32
}

func readMem() memStats {
	var m runtime.MemStats
	runtime.ReadMemStats(&m)
	return memStats{alloc: m.TotalAlloc, mallocs: m.Mallocs, pauseNs: m.PauseTotalNs, gcs: m.NumGC}
}

func (m memStats) since(o memStats) memStats {
	return memStats{alloc: m.alloc - o.alloc, mallocs: m.mallocs - o.mallocs, pauseNs: m.pauseNs - o.pauseNs, gcs: m.gcs - o.gcs}
}

// cacheCounts reads the serve.* counters a server registered on its
// Wall.
func cacheCounts(w *obs.Wall) map[string]int64 {
	c, _ := w.Snapshot()["counters"].(map[string]int64)
	return c
}

// dirSize sums the sizes of the regular files under those of dir's
// subdirectories that exist.
func dirSize(dir string, subdirs ...string) (int64, error) {
	var n int64
	for _, sub := range subdirs {
		err := filepath.WalkDir(filepath.Join(dir, sub), func(path string, d fs.DirEntry, err error) error {
			if err != nil || !d.Type().IsRegular() {
				return err
			}
			info, err := d.Info()
			if err != nil {
				return err
			}
			n += info.Size()
			return nil
		})
		if err != nil && !errors.Is(err, fs.ErrNotExist) {
			return 0, err
		}
	}
	return n, nil
}
