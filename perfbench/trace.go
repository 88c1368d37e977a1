package main

import (
	"bytes"
	"encoding/json"
	"fmt"
	"os"
	"runtime/pprof"
	"time"
)

// span is one timed call the benchmark made into the program.
type span struct {
	ID     int    `json:"id"`
	Parent int    `json:"parent"`
	Name   string `json:"name"`
	Start  int64  `json:"start_ns"`
	End    int64  `json:"end_ns"`
}

// traceHooks is what a traced run records: spans around each call the
// benchmark makes, kept in memory until the run ends, and a CPU profile over
// each round's run phase. A nil *traceHooks records nothing, which is how
// untraced rounds run.
type traceHooks struct {
	epoch time.Time
	spans []span
	prof  *profileSum
	buf   *bytes.Buffer
}

func newTraceHooks() *traceHooks {
	return &traceHooks{epoch: time.Now(), prof: newProfileSum()}
}

// begin opens a span under parent (0: none) and returns its ID.
func (h *traceHooks) begin(name string, parent int) int {
	if h == nil {
		return 0
	}
	h.spans = append(h.spans, span{ID: len(h.spans) + 1, Parent: parent, Name: name,
		Start: time.Since(h.epoch).Nanoseconds()})
	return len(h.spans)
}

func (h *traceHooks) end(id int) {
	if h != nil {
		h.spans[id-1].End = time.Since(h.epoch).Nanoseconds()
	}
}

func (h *traceHooks) writeSpans(path string) error {
	var b bytes.Buffer
	enc := json.NewEncoder(&b)
	for _, s := range h.spans {
		if err := enc.Encode(s); err != nil {
			return fmt.Errorf("spans: %w", err)
		}
	}
	if err := os.WriteFile(path, b.Bytes(), 0o644); err != nil {
		return fmt.Errorf("spans: %w", err)
	}
	return nil
}

func (h *traceHooks) startProfile() {
	if h == nil {
		return
	}
	h.buf = &bytes.Buffer{}
	if err := pprof.StartCPUProfile(h.buf); err != nil {
		fail("cpu-profile", err)
	}
}

func (h *traceHooks) stopProfile() {
	if h == nil {
		return
	}
	pprof.StopCPUProfile()
	if err := h.prof.add(h.buf.Bytes()); err != nil {
		fail("cpu-profile", err)
	}
}
