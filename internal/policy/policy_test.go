package policy

import (
	"sync"
	"testing"

	"github.com/pglp/panda/internal/geo"
	"github.com/pglp/panda/internal/policygraph"
)

func TestRecommenders(t *testing.T) {
	grid := geo.MustGrid(8, 8, 1)
	ga := ForMonitoring(grid, 4, 4)
	gb := ForAnalysis(grid, 2, 2)
	if len(ga.Components()) != 4 {
		t.Errorf("Ga components = %d, want 4", len(ga.Components()))
	}
	if len(gb.Components()) != 16 {
		t.Errorf("Gb components = %d, want 16", len(gb.Components()))
	}
	// Gb is finer: more, smaller components.
	gc := ForContactTracing(gb, []int{0, 1})
	if gc.Degree(0) != 0 || gc.Degree(1) != 0 {
		t.Error("infected cells should be isolated in Gc")
	}
	g1 := Baseline(grid)
	if !g1.IsConnected() {
		t.Error("baseline G1 should be connected")
	}
}

func TestManagerValidation(t *testing.T) {
	grid := geo.MustGrid(3, 3, 1)
	g := Baseline(grid)
	if _, err := NewManager(nil, g, 1); err == nil {
		t.Error("nil grid should error")
	}
	if _, err := NewManager(grid, nil, 1); err == nil {
		t.Error("nil graph should error")
	}
	if _, err := NewManager(grid, policygraph.New(5), 1); err == nil {
		t.Error("mismatched graph should error")
	}
	if _, err := NewManager(grid, g, 0); err == nil {
		t.Error("zero eps should error")
	}
}

func TestManagerDefaultAssignment(t *testing.T) {
	grid := geo.MustGrid(3, 3, 1)
	g := Baseline(grid)
	m, err := NewManager(grid, g, 0.8)
	if err != nil {
		t.Fatal(err)
	}
	up := m.Get(7)
	if up.Epsilon != 0.8 || up.Version != 1 || !up.Consented {
		t.Errorf("default policy = %+v", up)
	}
	if !up.Graph.Equal(g) {
		t.Error("default graph should be the baseline")
	}
	if m.Version(7) != 1 {
		t.Errorf("Version(7) = %d", m.Version(7))
	}
	if m.Version(99) != 0 {
		t.Errorf("unknown user version = %d, want 0", m.Version(99))
	}
	if users := m.Users(); len(users) != 1 || users[0] != 7 {
		t.Errorf("Users = %v", users)
	}
}

func TestManagerSetAndConsent(t *testing.T) {
	grid := geo.MustGrid(3, 3, 1)
	m, _ := NewManager(grid, Baseline(grid), 1)
	g2 := policygraph.Complete(9, nil)
	if err := m.Set(1, g2, 2); err != nil {
		t.Fatal(err)
	}
	up := m.Get(1)
	if up.Epsilon != 2 || up.Version != 2 || !up.Graph.Equal(g2) {
		t.Errorf("after Set: %+v", up)
	}
	if err := m.Set(1, policygraph.New(2), 1); err == nil {
		t.Error("bad graph should error")
	}
	if err := m.Set(1, g2, -1); err == nil {
		t.Error("bad eps should error")
	}
	m.Consent(1, false)
	if m.Get(1).Consented {
		t.Error("consent withdrawal not recorded")
	}
}

func TestManagerMarkInfected(t *testing.T) {
	grid := geo.MustGrid(3, 3, 1)
	m, _ := NewManager(grid, Baseline(grid), 1)
	// Two users exist.
	m.Get(0)
	m.Get(1)
	changed := m.MarkInfected([]int{4})
	if len(changed) != 2 {
		t.Fatalf("changed = %v, want both users", changed)
	}
	for _, u := range changed {
		up := m.Get(u)
		if up.Version != 2 {
			t.Errorf("user %d version = %d, want 2", u, up.Version)
		}
		if up.Graph.Degree(4) != 0 {
			t.Error("infected cell not isolated in updated policy")
		}
	}
	// New users get the infected-aware default.
	up := m.Get(5)
	if up.Graph.Degree(4) != 0 {
		t.Error("late joiner should get infected-aware default")
	}
	// Re-marking the same cell is a no-op.
	if again := m.MarkInfected([]int{4}); again != nil {
		t.Errorf("idempotent MarkInfected returned %v", again)
	}
	// Accumulation.
	m.MarkInfected([]int{0})
	inf := m.InfectedCells()
	if len(inf) != 2 || inf[0] != 0 || inf[1] != 4 {
		t.Errorf("InfectedCells = %v", inf)
	}
	// Out-of-range cells ignored.
	if got := m.MarkInfected([]int{-1, 100}); got != nil {
		t.Errorf("out-of-range marking returned %v", got)
	}
}

// TestManagerMarkInfectedSharesGraph pins that a wave builds the
// contact-tracing graph once and hands every user the same pointer,
// overwriting custom graphs given by Set as it always has.
func TestManagerMarkInfectedSharesGraph(t *testing.T) {
	grid := geo.MustGrid(6, 6, 1)
	base := Baseline(grid)
	m, _ := NewManager(grid, base, 1)
	for u := range 5 {
		m.Get(u)
	}
	if err := m.Set(3, policygraph.Complete(grid.NumCells(), nil), 2); err != nil {
		t.Fatal(err)
	}
	infected := []int{7, 20}
	if changed := m.MarkInfected(infected); len(changed) != 5 {
		t.Fatalf("changed = %v, want all 5 users", changed)
	}
	want := policygraph.IsolateNodes(base, infected)
	shared := m.Get(0).Graph
	if !shared.Equal(want) {
		t.Fatal("post-infection graph is not IsolateNodes(default, infected)")
	}
	for u := range 5 {
		if g := m.Get(u).Graph; g != shared {
			t.Errorf("user %d holds %p, not the shared graph %p", u, g, shared)
		}
	}
	if late := m.Get(99).Graph; late != shared {
		t.Error("a user created after the infection did not get the shared graph")
	}
	versions := map[int]int{}
	for _, u := range m.Users() {
		versions[u] = m.Version(u)
	}
	if again := m.MarkInfected(infected); again != nil {
		t.Fatalf("no-op MarkInfected changed %v", again)
	}
	if g := m.Get(0).Graph; g != shared {
		t.Error("no-op MarkInfected rebuilt the graph")
	}
	for u, v := range versions {
		if m.Version(u) != v {
			t.Errorf("no-op MarkInfected bumped user %d to v%d", u, m.Version(u))
		}
	}
	if !base.Equal(Baseline(grid)) {
		t.Error("MarkInfected modified the default graph")
	}
}

// BenchmarkManagerMarkInfected times one infection wave over 1000 users:
// each op infects a new cell, starting over on a fresh manager once
// every cell is infected.
func BenchmarkManagerMarkInfected(b *testing.B) {
	grid := geo.MustGrid(32, 32, 1)
	base := Baseline(grid)
	var m *Manager
	b.ReportAllocs()
	for i := 0; i < b.N; i++ {
		cell := i % grid.NumCells()
		if cell == 0 {
			b.StopTimer()
			m, _ = NewManager(grid, base, 1)
			for u := range 1000 {
				m.Get(u)
			}
			b.StartTimer()
		}
		if m.MarkInfected([]int{cell}) == nil {
			b.Fatal("wave changed no user")
		}
	}
}

func TestManagerConcurrentAccess(t *testing.T) {
	grid := geo.MustGrid(4, 4, 1)
	m, _ := NewManager(grid, Baseline(grid), 1)
	var wg sync.WaitGroup
	for i := 0; i < 8; i++ {
		wg.Add(1)
		go func(id int) {
			defer wg.Done()
			for j := 0; j < 50; j++ {
				m.Get(id)
				m.MarkInfected([]int{j % 16})
				m.Version(id)
				m.InfectedCells()
			}
		}(i)
	}
	wg.Wait()
	if len(m.InfectedCells()) != 16 {
		t.Errorf("infected cells = %v", m.InfectedCells())
	}
}
