package main

import (
	"bufio"
	"encoding/json"
	"os"
	"path/filepath"
	"strconv"
	"strings"
	"time"

	"periodica/internal/obs"
)

// span is one timed call across a layer boundary. Spans of one traced
// round share Op; Parent is the ID of the span that caused it (0 for a
// round's root).
type span struct {
	ID      int    `json:"id"`
	Parent  int    `json:"parent"`
	Op      int    `json:"op"`
	Name    string `json:"name"`
	StartNs int64  `json:"start_ns"`
	EndNs   int64  `json:"end_ns"`
}

// tracer keeps spans in memory; write saves them when the run ends.
type tracer struct {
	t0    time.Time
	spans []span
}

func newTracer() *tracer { return &tracer{t0: time.Now()} }

func (t *tracer) begin(name string, parent, op int) int {
	t.spans = append(t.spans, span{ID: len(t.spans) + 1, Parent: parent, Op: op, Name: name,
		StartNs: time.Since(t.t0).Nanoseconds()})
	return len(t.spans)
}

func (t *tracer) end(id int) float64 {
	sp := &t.spans[id-1]
	sp.EndNs = time.Since(t.t0).Nanoseconds()
	return float64(sp.EndNs-sp.StartNs) / 1e9
}

// timed runs f inside a span and returns its duration in seconds.
func (t *tracer) timed(name string, parent, op int, f func() error) (float64, error) {
	id := t.begin(name, parent, op)
	err := f()
	return t.end(id), err
}

// write saves the spans as JSON lines.
func (t *tracer) write(path string) error {
	if err := os.MkdirAll(filepath.Dir(path), 0o755); err != nil {
		return err
	}
	f, err := os.Create(path)
	if err != nil {
		return err
	}
	w := bufio.NewWriter(f)
	enc := json.NewEncoder(w)
	for _, sp := range t.spans {
		if err := enc.Encode(sp); err != nil {
			_ = f.Close()
			return err
		}
	}
	if err := w.Flush(); err != nil {
		_ = f.Close()
		return err
	}
	return f.Close()
}

// scrape reads the metrics a registry exports, keyed by series name with
// its labels, as the program renders them for /metrics. The process-wide
// families (pipeline stages, FFT kernels, dist, query) render in every
// registry.
type scrape map[string]float64

func scrapeRegistry(reg *obs.Registry) scrape {
	out := scrape{}
	for _, line := range strings.Split(reg.RenderText(), "\n") {
		if line == "" || line[0] == '#' {
			continue
		}
		i := strings.LastIndexByte(line, ' ')
		if v, err := strconv.ParseFloat(line[i+1:], 64); err == nil {
			out[line[:i]] = v
		}
	}
	return out
}

// family sums every labelled series of one metric family.
func (s scrape) family(name string) float64 {
	var sum float64
	for k, v := range s {
		if k == name || strings.HasPrefix(k, name+"{") {
			sum += v
		}
	}
	return sum
}

// delta returns after−before for one series.
func delta(before, after scrape, key string) float64 { return after[key] - before[key] }
