package main

import (
	"bufio"
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"sync"
	"time"
)

// span is one interval at a layer boundary.  Run groups the spans of one
// repetition of the workload; Parent is the id of the enclosing span, -1
// for a root.  Times are nanoseconds since the benchmark started.
type span struct {
	Run    int    `json:"run"`
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// spanLog keeps spans in memory until the run ends.  A nil *spanLog
// records nothing, which is how untraced repetitions run.  Only layer
// boundaries crossed a bounded number of times per repetition get spans
// (repetitions, set-up, drains, cells, store calls, emulation phases);
// per-slot calls are summed into timers instead, since a span each
// would cost millions of entries on batch_e15.
type spanLog struct {
	mu    sync.Mutex
	t0    time.Time
	spans []span
}

func newSpanLog(t0 time.Time) *spanLog { return &spanLog{t0: t0} }

// begin opens a span and returns its id (-1 on a nil log).
func (l *spanLog) begin(run, parent int, name string) int {
	if l == nil {
		return -1
	}
	now := int64(time.Since(l.t0))
	l.mu.Lock()
	defer l.mu.Unlock()
	id := len(l.spans)
	l.spans = append(l.spans, span{Run: run, ID: id, Parent: parent, Name: name, Start: now, End: -1})
	return id
}

// end closes the span with the given id.
func (l *spanLog) end(id int) {
	if l == nil || id < 0 {
		return
	}
	now := int64(time.Since(l.t0))
	l.mu.Lock()
	l.spans[id].End = now
	l.mu.Unlock()
}

// selfSeconds returns, per span name, the summed self time: each span's
// duration minus the part its child spans cover.
func (l *spanLog) selfSeconds() map[string]float64 {
	l.mu.Lock()
	defer l.mu.Unlock()
	child := make([]int64, len(l.spans))
	for _, s := range l.spans {
		if s.Parent >= 0 && s.End >= 0 {
			child[s.Parent] += s.End - s.Start
		}
	}
	self := map[string]float64{}
	for i, s := range l.spans {
		if s.End >= 0 {
			self[s.Name] += float64(s.End-s.Start-child[i]) / 1e9
		}
	}
	return self
}

// write saves the log as JSON lines under dir: a header line with the
// host block and workload, then one line per span.  It returns the
// file's path.
func (l *spanLog) write(dir string, header interface{}) (string, error) {
	if err := os.MkdirAll(dir, 0o755); err != nil {
		return "", fmt.Errorf("spans: %w", err)
	}
	path := filepath.Join(dir, fmt.Sprintf("spans-%d.jsonl", os.Getpid()))
	f, err := os.Create(path)
	if err != nil {
		return "", fmt.Errorf("spans: %w", err)
	}
	defer f.Close()
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	if err := enc.Encode(header); err != nil {
		return "", fmt.Errorf("spans: %w", err)
	}
	l.mu.Lock()
	defer l.mu.Unlock()
	for i := range l.spans {
		if err := enc.Encode(&l.spans[i]); err != nil {
			return "", fmt.Errorf("spans: %w", err)
		}
	}
	if err := w.Flush(); err != nil {
		return "", fmt.Errorf("spans: %w", err)
	}
	if err := f.Close(); err != nil {
		return "", fmt.Errorf("spans: %w", err)
	}
	return path, nil
}
