package parallel

import "testing"

func TestArenaAllocatesDistinctBuffers(t *testing.T) {
	a := NewArena(2)
	if a.Tasks() != 2 {
		t.Fatalf("tasks = %d, want 2", a.Tasks())
	}
	ta := a.Task(0)
	x := ta.F64(8)
	y := ta.F64(8)
	if len(x) != 8 || len(y) != 8 {
		t.Fatalf("lengths %d, %d, want 8", len(x), len(y))
	}
	x[7] = 1
	y[0] = 2
	if x[7] != 1 || y[0] != 2 {
		t.Fatal("buffers overlap")
	}
	// Full-capacity slices: appends must not clobber the neighbour.
	x = append(x, 99)
	if y[0] != 2 {
		t.Fatal("append to one arena buffer grew into the next")
	}
}

func TestArenaSteadyStateAllocFree(t *testing.T) {
	a := NewArena(1)
	ta := a.Task(0)
	warm := func() {
		m := ta.Mark()
		_ = ta.F64(100)
		_ = ta.I32(50)
		ta.Release(m)
	}
	warm() // grows every pool once
	if n := testing.AllocsPerRun(20, warm); n != 0 {
		t.Errorf("steady-state Mark/alloc/Release allocates %.1f per frame, want 0", n)
	}
}

func TestArenaMarkReleaseReusesMemory(t *testing.T) {
	a := NewArena(1)
	ta := a.Task(0)
	m := ta.Mark()
	first := ta.F64(16)
	first[3] = 42
	ta.Release(m)
	second := ta.F64(16)
	// Same backing memory (arena semantics: contents are NOT zeroed).
	if &first[0] != &second[0] {
		t.Fatal("Release did not rewind to the marked frontier")
	}
	if second[3] != 42 {
		t.Fatal("expected recycled (dirty) backing memory")
	}
}

func TestArenaGrowthKeepsOldBuffersValid(t *testing.T) {
	a := NewArena(1)
	ta := a.Task(0)
	old := ta.F64(64)
	old[0] = 7
	_ = ta.F64(1 << 16) // forces new backing
	if old[0] != 7 {
		t.Fatal("pre-growth buffer lost its contents")
	}
}
