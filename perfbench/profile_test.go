package main

import (
	"bytes"
	"compress/gzip"
	"encoding/binary"
	"math"
	"testing"
)

const (
	netsimRoute = "archadapt/internal/netsim.(*Network).route"
	fleetAdmit  = "archadapt/internal/fleet.(*Fleet).admit"
)

func TestBucketOf(t *testing.T) {
	cases := []struct {
		name   string
		frames []string
		want   string
	}{
		{"runtime under a layer", []string{"runtime.mallocgc", "runtime.newobject", netsimRoute,
			"archadapt/internal/fleet.(*Scheduler).pick", fleetAdmit, "main.main"}, "netsim"},
		{"gc assist under a layer", []string{"runtime.scanobject", "runtime.gcAssistAlloc", "runtime.mallocgc",
			"archadapt/internal/sim.(*Kernel).Run", "main.main"}, "sim"},
		{"map work under a closure", []string{"runtime.mapassign_fast64",
			"archadapt/internal/remos.(*Service).startCollection.func1", "archadapt/internal/sim.(*Kernel).fire"}, "remos"},
		{"background mark worker", []string{"runtime.scanobject", "runtime.gcDrain",
			"runtime.gcBgMarkWorker.func2", "runtime.systemstack", "runtime.gcBgMarkWorker"}, "gc"},
		{"scheduler", []string{"runtime.futex", "runtime.notesleep", "runtime.mcall"}, "other"},
		{"unlisted module", []string{"archadapt/internal/obs.(*Tracer).KernelEvent", "main.main"}, "other"},
		{"unlisted module over a listed one", []string{"archadapt/internal/operators.Build",
			"archadapt/internal/fleet.(*Fleet).admit"}, "fleet"},
		{"benchmark itself", []string{"main.(*workload).round", "main.main"}, "other"},
		{"empty", nil, "other"},
	}
	for _, c := range cases {
		if got := bucketOf(c.frames); got != c.want {
			t.Errorf("%s: bucket %q, want %q", c.name, got, c.want)
		}
	}
}

func TestInAdmission(t *testing.T) {
	if !inAdmission([]string{netsimRoute, fleetAdmit, "archadapt/internal/fleet.StartScenario.func1"}) {
		t.Error("stack through Fleet.admit not charged to admission")
	}
	if !inAdmission([]string{"archadapt/internal/fleet.(*Fleet).Admit", "main.main"}) {
		t.Error("stack through Fleet.Admit not charged to admission")
	}
	if inAdmission([]string{netsimRoute, "archadapt/internal/remos.(*Service).measure"}) {
		t.Error("stack outside admission charged to it")
	}
}

// pb is a minimal protobuf writer for building synthetic profiles.
type pb struct{ b []byte }

func (p *pb) varint(field int, v uint64) {
	p.b = binary.AppendUvarint(p.b, uint64(field)<<3)
	p.b = binary.AppendUvarint(p.b, v)
}

func (p *pb) bytes(field int, b []byte) {
	p.b = binary.AppendUvarint(p.b, uint64(field)<<3|2)
	p.b = binary.AppendUvarint(p.b, uint64(len(b)))
	p.b = append(p.b, b...)
}

func (p *pb) packed(field int, vs ...uint64) {
	var q pb
	for _, v := range vs {
		q.b = binary.AppendUvarint(q.b, v)
	}
	p.bytes(field, q.b)
}

// syntheticProfile encodes three CPU samples: a netsim stack inside an
// admission (packed fields, an inlined frame), a background GC worker
// (unpacked fields) and a sim stack.
func syntheticProfile(t *testing.T) []byte {
	strs := []string{"", "samples", "count", "cpu", "nanoseconds",
		"runtime.mallocgc", netsimRoute, fleetAdmit, "runtime.gcBgMarkWorker",
		"runtime.scanobject", "archadapt/internal/sim.(*Kernel).Run"}
	var p pb
	for _, vt := range [][2]uint64{{1, 2}, {3, 4}} {
		var q pb
		q.varint(1, vt[0])
		q.varint(2, vt[1])
		p.bytes(1, q.b)
	}
	sample := func(packed bool, count, ns uint64, locs ...uint64) {
		var q pb
		if packed {
			q.packed(1, locs...)
			q.packed(2, count, ns)
		} else {
			for _, l := range locs {
				q.varint(1, l)
			}
			q.varint(2, count)
			q.varint(2, ns)
		}
		p.bytes(2, q.b)
	}
	sample(true, 3, 30_000_000, 1, 2)
	sample(false, 1, 10_000_000, 3, 4)
	sample(true, 2, 20_000_000, 5)
	// Locations: 1 = mallocgc inlined into route; 2 = admit; 3 = scanobject;
	// 4 = gcBgMarkWorker; 5 = Kernel.Run.
	for _, loc := range []struct {
		id  uint64
		fns []uint64
	}{{1, []uint64{1, 2}}, {2, []uint64{3}}, {3, []uint64{5}}, {4, []uint64{4}}, {5, []uint64{6}}} {
		var q pb
		q.varint(1, loc.id)
		q.varint(3, 0x1000+loc.id)
		for _, fn := range loc.fns {
			var line pb
			line.varint(1, fn)
			line.varint(2, 42)
			q.bytes(4, line.b)
		}
		p.bytes(4, q.b)
	}
	for id, name := range []uint64{5, 6, 7, 8, 9, 10} {
		var q pb
		q.varint(1, uint64(id+1))
		q.varint(2, name)
		p.bytes(5, q.b)
	}
	for _, s := range strs {
		p.bytes(6, []byte(s))
	}
	p.varint(12, 10_000_000) // period: skipped by the decoder
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	if _, err := zw.Write(p.b); err != nil {
		t.Fatal(err)
	}
	if err := zw.Close(); err != nil {
		t.Fatal(err)
	}
	return buf.Bytes()
}

func TestDecodeAndChargeSyntheticProfile(t *testing.T) {
	raw := syntheticProfile(t)
	stacks, err := decodeProfile(raw)
	if err != nil {
		t.Fatal(err)
	}
	if len(stacks) != 3 {
		t.Fatalf("%d stacks, want 3", len(stacks))
	}
	want := []string{"runtime.mallocgc", netsimRoute, fleetAdmit}
	if got := stacks[0].frames; len(got) != 3 || got[0] != want[0] || got[1] != want[1] || got[2] != want[2] {
		t.Fatalf("frames %q, want %q", got, want)
	}
	if stacks[0].count != 3 || stacks[0].cpuNs != 30_000_000 {
		t.Fatalf("first sample count %d ns %d", stacks[0].count, stacks[0].cpuNs)
	}
	p := newProfileSum()
	for i := 0; i < 2; i++ { // charging is additive and deterministic
		if err := p.add(raw); err != nil {
			t.Fatal(err)
		}
	}
	for b, sec := range map[string]float64{"netsim": 0.06, "gc": 0.02, "sim": 0.04} {
		if math.Abs(p.seconds[b]-sec) > 1e-12 {
			t.Errorf("%s charged %v s, want %v", b, p.seconds[b], sec)
		}
	}
	if p.samples != 12 {
		t.Errorf("%d samples, want 12", p.samples)
	}
	if math.Abs(p.admitShare()-0.5) > 1e-12 {
		t.Errorf("admission share %v, want 0.5", p.admitShare())
	}
}

func TestDecodeRejectsGarbage(t *testing.T) {
	if _, err := decodeProfile([]byte("not gzip")); err == nil {
		t.Error("decoded a non-gzip profile")
	}
	var buf bytes.Buffer
	zw := gzip.NewWriter(&buf)
	zw.Write([]byte{0x0a, 0x05, 0x01}) // length past the end
	zw.Close()
	if _, err := decodeProfile(buf.Bytes()); err == nil {
		t.Error("decoded a truncated profile")
	}
}
