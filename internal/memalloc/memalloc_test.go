package memalloc

import (
	"errors"
	"math/rand"
	"reflect"
	"testing"
	"testing/quick"
	"unsafe"

	"vdnn/internal/sim"
)

func TestAllocFreeBasic(t *testing.T) {
	p := New(1 << 20)
	b, err := p.Alloc(0, 1000, KindFeatureMap, "x")
	if err != nil {
		t.Fatal(err)
	}
	if b.Size != 1024 { // rounded to 512-byte alignment
		t.Fatalf("size = %d, want 1024", b.Size)
	}
	if p.Used() != 1024 || p.UsedByKind(KindFeatureMap) != 1024 {
		t.Fatalf("used = %d byKind = %d", p.Used(), p.UsedByKind(KindFeatureMap))
	}
	p.Free(b, 0)
	if p.Used() != 0 || p.FreeRanges() != 1 {
		t.Fatalf("after free: used=%d ranges=%d", p.Used(), p.FreeRanges())
	}
}

func TestZeroSizeAllocGetsMinimum(t *testing.T) {
	p := New(1 << 20)
	b, err := p.Alloc(0, 0, KindWorkspace, "empty-ws")
	if err != nil {
		t.Fatal(err)
	}
	if b.Size != 512 {
		t.Fatalf("zero-size alloc got %d bytes, want 512", b.Size)
	}
}

func TestOOMCapacity(t *testing.T) {
	p := New(1 << 20)
	if _, err := p.Alloc(0, 2<<20, KindFeatureMap, "big"); err == nil {
		t.Fatal("expected OOM")
	} else {
		var oom *OOMError
		if !errors.As(err, &oom) {
			t.Fatalf("error type %T, want *OOMError", err)
		}
		if oom.Fragmentation {
			t.Fatal("capacity failure misreported as fragmentation")
		}
	}
}

func TestOOMFragmentation(t *testing.T) {
	p := New(2048)
	a, _ := p.Alloc(0, 512, KindFeatureMap, "a")
	b, _ := p.Alloc(0, 512, KindFeatureMap, "b")
	c, _ := p.Alloc(0, 512, KindFeatureMap, "c")
	d, _ := p.Alloc(0, 512, KindFeatureMap, "d")
	_ = a
	_ = c
	// Free alternating blocks: 2x512 free but not contiguous.
	p.Free(b, 1)
	p.Free(d, 1)
	_, err := p.Alloc(2, 1024, KindFeatureMap, "needs-contig")
	var oom *OOMError
	if !errors.As(err, &oom) {
		t.Fatalf("want OOM, got %v", err)
	}
	if !oom.Fragmentation {
		t.Fatalf("want fragmentation failure, got %+v", oom)
	}
	if oom.LargestFree != 512 {
		t.Fatalf("largest free = %d, want 512", oom.LargestFree)
	}
}

func TestCoalescing(t *testing.T) {
	p := New(1 << 20)
	a, _ := p.Alloc(0, 512, KindFeatureMap, "a")
	b, _ := p.Alloc(0, 512, KindFeatureMap, "b")
	c, _ := p.Alloc(0, 512, KindFeatureMap, "c")
	// Free in an order that exercises successor and predecessor merging.
	p.Free(a, 1)
	p.Free(c, 1)
	p.Flush(1)
	// a's hole stands alone; c's hole coalesces with the tail range.
	if p.FreeRanges() != 2 {
		t.Fatalf("ranges = %d, want 2", p.FreeRanges())
	}
	p.Free(b, 1)
	p.Flush(1)
	if p.FreeRanges() != 1 {
		t.Fatalf("after all frees ranges = %d, want fully coalesced 1", p.FreeRanges())
	}
}

func TestBestFitPrefersSmallestHole(t *testing.T) {
	p := New(10 * 512)
	a, _ := p.Alloc(0, 512, KindFeatureMap, "a")    // hole later: 512
	pad1, _ := p.Alloc(0, 512, KindFeatureMap, "p") // keeps holes apart
	b, _ := p.Alloc(0, 3*512, KindFeatureMap, "b")  // hole later: 1536
	pad2, _ := p.Alloc(0, 512, KindFeatureMap, "q")
	_ = pad1
	_ = pad2
	p.Free(a, 1)
	p.Free(b, 1)
	// Requesting 512 must come from a's 512-hole (best fit), not b's.
	c, err := p.Alloc(2, 512, KindFeatureMap, "c")
	if err != nil {
		t.Fatal(err)
	}
	if c.Addr != a.Addr {
		t.Fatalf("best fit chose addr %d, want %d", c.Addr, a.Addr)
	}
}

func TestDoubleFreePanics(t *testing.T) {
	p := New(1 << 20)
	b, _ := p.Alloc(0, 512, KindFeatureMap, "b")
	p.Free(b, 1)
	defer func() {
		if recover() == nil {
			t.Fatal("double free did not panic")
		}
	}()
	p.Free(b, 2)
}

func TestFreeNilIsNoop(t *testing.T) {
	p := New(1 << 20)
	p.Free(nil, 0)
	if p.Used() != 0 {
		t.Fatal("Free(nil) changed usage")
	}
}

func TestDeferredFreeAppliesBeforeLaterAlloc(t *testing.T) {
	p := New(2048)
	a, _ := p.Alloc(0, 1024, KindFeatureMap, "a")
	b, _ := p.Alloc(0, 1024, KindFeatureMap, "b")
	_ = b
	// Schedule a's free for t=100 (e.g. offload completion).
	p.Free(a, 100)
	// At t=50 the pool is still full.
	if _, err := p.Alloc(50, 1024, KindFeatureMap, "c"); err == nil {
		t.Fatal("alloc at t=50 should fail; free not yet applied")
	}
	// At t=100 the pending free is applied first.
	if _, err := p.Alloc(100, 1024, KindFeatureMap, "d"); err != nil {
		t.Fatalf("alloc at t=100 should succeed: %v", err)
	}
}

func TestAllocTimeMonotonicityEnforced(t *testing.T) {
	p := New(1 << 20)
	p.Alloc(100, 512, KindFeatureMap, "a")
	defer func() {
		if recover() == nil {
			t.Fatal("backward allocation time did not panic")
		}
	}()
	p.Alloc(50, 512, KindFeatureMap, "b")
}

func TestFlush(t *testing.T) {
	p := New(1 << 20)
	a, _ := p.Alloc(0, 512, KindFeatureMap, "a")
	p.Free(a, 1000)
	if p.Used() != 512 {
		t.Fatal("pending free applied too early")
	}
	p.Flush(999)
	if p.Used() != 512 {
		t.Fatal("flush(999) should not apply free at t=1000")
	}
	p.Flush(1000)
	if p.Used() != 0 {
		t.Fatal("flush(1000) should apply the free")
	}
}

func TestMeasurePeakAndAverage(t *testing.T) {
	p := New(1 << 20)
	a, _ := p.Alloc(0, 1024, KindFeatureMap, "a") // 1 KiB for [0,100)
	b, _ := p.Alloc(0, 2048, KindGradMap, "b")    // 2 KiB for [0,50)
	p.Free(b, 50)
	p.Free(a, 100)
	p.Flush(100)
	st := p.Measure(0, 100)
	if st.Peak != 3072 {
		t.Fatalf("peak = %d, want 3072", st.Peak)
	}
	// avg = (3072*50 + 1024*50)/100 = 2048
	if st.Avg != 2048 {
		t.Fatalf("avg = %d, want 2048", st.Avg)
	}
	if st.PeakByKind[KindFeatureMap] != 1024 || st.PeakByKind[KindGradMap] != 2048 {
		t.Fatalf("peak breakdown wrong: %+v", st.PeakByKind)
	}
	if st.PeakTime != 0 {
		t.Fatalf("peak time = %v, want 0", st.PeakTime)
	}
}

func TestMeasureCarriedUsageCountsAsPeak(t *testing.T) {
	p := New(1 << 20)
	p.Alloc(0, 4096, KindWeights, "w") // held forever
	st := p.Measure(10, 20)            // window with no events
	if st.Peak != 4096 {
		t.Fatalf("carried peak = %d, want 4096", st.Peak)
	}
	if st.Avg != 4096 {
		t.Fatalf("carried avg = %d, want 4096", st.Avg)
	}
}

func TestMeasureAllEmpty(t *testing.T) {
	p := New(1 << 20)
	st := p.MeasureAll()
	if st.Peak != 0 || st.Avg != 0 {
		t.Fatalf("empty pool stats = %+v", st)
	}
}

func TestKindNames(t *testing.T) {
	if KindWeights.String() != "weights" || KindWorkspace.String() != "workspace" {
		t.Fatal("kind names wrong")
	}
	if len(Kinds()) != int(numKinds) {
		t.Fatal("Kinds() incomplete")
	}
}

// reference is a trivially correct allocator used to cross-check the pool.
type reference struct {
	capacity int64
	blocks   map[*Block]bool
}

func (r *reference) overlapFree(addr, size int64) bool {
	for b := range r.blocks {
		if addr < b.Addr+b.Size && b.Addr < addr+size {
			return false
		}
	}
	return true
}

// TestRandomizedAgainstReference drives random alloc/free traffic and checks
// structural invariants: no live blocks overlap, usage accounting is exact,
// everything stays in bounds, and full coalescing happens when empty.
func TestRandomizedAgainstReference(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		const cap = 1 << 20
		p := New(cap)
		ref := &reference{capacity: cap, blocks: map[*Block]bool{}}
		var live []*Block
		var want int64
		now := sim.Time(0)
		for step := 0; step < 300; step++ {
			now += sim.Time(rng.Intn(5))
			if rng.Intn(3) != 0 || len(live) == 0 {
				size := int64(rng.Intn(64*1024) + 1)
				b, err := p.Alloc(now, size, Kind(rng.Intn(int(numKinds))), "r")
				if err != nil {
					continue // OOM is legal under random traffic
				}
				if b.Addr < 0 || b.Addr+b.Size > cap {
					t.Logf("block out of bounds: %+v", b)
					return false
				}
				if !ref.overlapFree(b.Addr, b.Size) {
					t.Logf("overlap at %d+%d", b.Addr, b.Size)
					return false
				}
				ref.blocks[b] = true
				live = append(live, b)
				want += b.Size
			} else {
				i := rng.Intn(len(live))
				b := live[i]
				live = append(live[:i], live[i+1:]...)
				delete(ref.blocks, b)
				p.Free(b, now)
				p.Flush(now) // make the free visible immediately
				want -= b.Size
			}
			if p.Used() != want {
				t.Logf("usage mismatch: got %d want %d", p.Used(), want)
				return false
			}
		}
		for _, b := range live {
			p.Free(b, now)
		}
		p.Flush(now)
		if p.Used() != 0 || p.FreeRanges() != 1 {
			t.Logf("not fully coalesced: used=%d ranges=%d", p.Used(), p.FreeRanges())
			return false
		}
		return true
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 25}); err != nil {
		t.Fatal(err)
	}
}

// Property: deferred frees never change the final state compared to
// immediate frees, only the intermediate timeline.
func TestDeferredVsImmediateFinalState(t *testing.T) {
	f := func(seed int64) bool {
		rng := rand.New(rand.NewSource(seed))
		const cap = 1 << 18
		imm := New(cap)
		def := New(cap)
		type pair struct{ a, b *Block }
		var live []pair
		now := sim.Time(0)
		for step := 0; step < 100; step++ {
			now += 10
			if rng.Intn(2) == 0 || len(live) == 0 {
				size := int64(rng.Intn(8192) + 1)
				a, errA := imm.Alloc(now, size, KindFeatureMap, "x")
				b, errB := def.Alloc(now, size, KindFeatureMap, "x")
				switch {
				case errA == nil && errB == nil:
					live = append(live, pair{a, b})
				case errA == nil:
					// Deferred frees can OOM where immediate frees do not;
					// drop the lone success to keep the live sets identical.
					imm.Free(a, now)
				case errB == nil:
					def.Free(b, now)
				}
			} else {
				i := rng.Intn(len(live))
				pr := live[i]
				live = append(live[:i], live[i+1:]...)
				imm.Free(pr.a, now)
				imm.Flush(now)
				def.Free(pr.b, now+5) // deferred to just after now
			}
		}
		def.Flush(now + 5)
		return imm.Used() == def.Used()
	}
	if err := quick.Check(f, &quick.Config{MaxCount: 20}); err != nil {
		t.Fatal(err)
	}
}

func TestNonPositiveCapacityPanics(t *testing.T) {
	defer func() {
		if recover() == nil {
			t.Fatal("New(0) did not panic")
		}
	}()
	New(0)
}

// TestRecordsFlat pins the allocator's per-allocation records — blocks, the
// usage log and the trace — as small and pointer-free: a label is stored
// once, in the pool's table, so the garbage collector never scans them.
func TestRecordsFlat(t *testing.T) {
	for _, tc := range []struct {
		v    any
		size uintptr
	}{
		{usageEvent{}, 24},
		{traceOp{}, 24}, // see also TestTraceOpSize
		{Block{}, 32},
	} {
		typ := reflect.TypeOf(tc.v)
		if n := typ.Size(); n > tc.size {
			t.Errorf("%v is %d bytes, want <= %d", typ, n, tc.size)
		}
		for i := 0; i < typ.NumField(); i++ {
			switch f := typ.Field(i); f.Type.Kind() {
			case reflect.Bool, reflect.Int, reflect.Int32, reflect.Int64, reflect.Uint8:
			default:
				t.Errorf("%v.%s is a %v: records must hold no pointers", typ, f.Name, f.Type.Kind())
			}
		}
	}
}

// TestTraceOpSize pins the recorded op at 24 bytes: an allocation's block
// sequence number is implicit in the recording order, so the run position
// and a free's block share one field, and the label lives in the trace's
// table.
func TestTraceOpSize(t *testing.T) {
	if n := unsafe.Sizeof(traceOp{}); n > 24 {
		t.Errorf("traceOp is %d bytes, want <= 24", n)
	}
}

// TestDoubleFreePanicText pins the double-free panic, whose label the pool
// looks up by the block's sequence number.
func TestDoubleFreePanicText(t *testing.T) {
	p := New(1 << 20)
	p.Alloc(0, 512, KindWeights, "conv1.W")
	b, _ := p.Alloc(0, 512, KindFeatureMap, "fm3")
	p.Free(b, 0)
	defer func() {
		if got, want := recover(), `memalloc: double free of "fm3"`; got != want {
			t.Fatalf("panic %v, want %q", got, want)
		}
	}()
	p.Free(b, 0)
}

// TestMeasureResortsInPlace checks that measuring sorts the usage log in
// place without changing what a later measurement sees: events appended
// after a measurement land where a single sort of the whole log puts them.
func TestMeasureResortsInPlace(t *testing.T) {
	drive := func(p *Pool, from, to int) {
		for i := from; i < to; i++ {
			now := sim.Time(10 * i)
			b, err := p.Alloc(now, int64(512*(1+i%3)), Kind(i%int(numKinds)), "b"+string(rune('a'+i)))
			if err != nil {
				t.Fatal(err)
			}
			p.Free(b, now+sim.Time(25-i%4*10)) // out of order, and ties
		}
	}
	split, whole := New(1<<20), New(1<<20)
	drive(split, 0, 6)
	split.Measure(0, 100)
	drive(split, 6, 12)
	drive(whole, 0, 12)
	for _, w := range [][2]sim.Time{{0, 200}, {15, 95}, {40, 41}} {
		if got, want := split.Measure(w[0], w[1]), whole.Measure(w[0], w[1]); !reflect.DeepEqual(got, want) {
			t.Errorf("Measure%v after a re-sort = %+v, want %+v", w, got, want)
		}
		if got, want := split.SnapshotAt(w[1]), whole.SnapshotAt(w[1]); !reflect.DeepEqual(got, want) {
			t.Errorf("SnapshotAt(%d) after a re-sort = %v, want %v", w[1], got, want)
		}
	}
}
