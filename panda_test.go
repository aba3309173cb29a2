package panda

import (
	"encoding/json"
	"net/http"
	"net/http/httptest"
	"strings"
	"testing"
)

func testOptions() Options {
	return Options{Rows: 8, Cols: 8, CellSize: 1, Epsilon: 1}
}

func TestNewSystemValidation(t *testing.T) {
	if _, err := NewSystem(Options{}); err == nil {
		t.Error("empty options should error")
	}
	if _, err := NewSystem(Options{Rows: 4, Cols: 4, CellSize: 1, Epsilon: 0}); err == nil {
		t.Error("zero epsilon should error")
	}
	sys, err := NewSystem(testOptions())
	if err != nil {
		t.Fatal(err)
	}
	if sys.NumCells() != 64 {
		t.Errorf("NumCells = %d", sys.NumCells())
	}
}

// TestNewSystemRefusesOversizedGrid: a grid with more cells than a
// client may decode is refused before any policy graph is built,
// including one whose cell count overflows an int.
func TestNewSystemRefusesOversizedGrid(t *testing.T) {
	for _, o := range []Options{
		{Rows: 2049, Cols: 2048, CellSize: 1, Epsilon: 1},
		{Rows: 1 << 40, Cols: 1 << 40, CellSize: 1, Epsilon: 1},
	} {
		if _, err := NewSystem(o); err == nil || !strings.Contains(err.Error(), "MaxNodes") {
			t.Errorf("NewSystem(%dx%d): error %v, want the MaxNodes refusal", o.Rows, o.Cols, err)
		}
	}
}

func TestUserReportAndMonitoring(t *testing.T) {
	sys, err := NewSystem(testOptions())
	if err != nil {
		t.Fatal(err)
	}
	alice, err := sys.NewUser(1, GEM, 7)
	if err != nil {
		t.Fatal(err)
	}
	for ti := 0; ti < 5; ti++ {
		r, err := alice.Report(ti, 10)
		if err != nil {
			t.Fatal(err)
		}
		if !geoValid(sys, r) {
			t.Fatalf("release %+v invalid", r)
		}
	}
	recs := sys.Records(1)
	if len(recs) != 5 {
		t.Errorf("records = %d", len(recs))
	}
	density := sys.DensityAt(0, 4, 4)
	total := 0
	for _, c := range density {
		total += c
	}
	if total != 1 {
		t.Errorf("density total = %d, want 1", total)
	}
}

func geoValid(sys *System, r Release) bool {
	return r.Cell >= 0 && r.Cell < sys.NumCells() && sys.SnapToCell(r.Point) == r.Cell
}

func TestAllMechanismKinds(t *testing.T) {
	sys, _ := NewSystem(testOptions())
	for i, kind := range []MechanismKind{GEM, GEME, GLM, PIM, KNorm, GeoInd} {
		u, err := sys.NewUser(10+i, kind, uint64(i))
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		if _, err := u.Report(0, 3); err != nil {
			t.Fatalf("%s report: %v", kind, err)
		}
	}
	if _, err := sys.NewUser(99, MechanismKind("bogus"), 1); err == nil {
		t.Error("unknown mechanism should error")
	}
}

func TestInfectionUpdateTriggersPolicyRefresh(t *testing.T) {
	sys, _ := NewSystem(testOptions())
	bob, err := sys.NewUser(2, GEM, 3)
	if err != nil {
		t.Fatal(err)
	}
	if bob.PolicyVersion() != 1 {
		t.Fatalf("initial version = %d", bob.PolicyVersion())
	}
	changed := sys.MarkInfected([]int{20, 21})
	found := false
	for _, u := range changed {
		if u == 2 {
			found = true
		}
	}
	if !found {
		t.Error("bob's policy should have changed")
	}
	// Next report rebuilds the mechanism under Gc; a visit to an infected
	// cell is disclosed exactly.
	r, err := bob.Report(0, 20)
	if err != nil {
		t.Fatal(err)
	}
	if bob.PolicyVersion() != 2 {
		t.Errorf("version after refresh = %d", bob.PolicyVersion())
	}
	if r.Point != sys.CellCenter(20) || r.Cell != 20 {
		t.Errorf("infected visit should be exact: %+v", r)
	}
	// Health code turns red after two infected visits.
	if _, err := bob.Report(1, 21); err != nil {
		t.Fatal(err)
	}
	if code := sys.HealthCodeFor(2, 0, -1); code != CodeRed {
		t.Errorf("health code = %v, want red", code)
	}
	if got := sys.InfectedCells(); len(got) != 2 {
		t.Errorf("InfectedCells = %v", got)
	}
}

func TestReportHistory(t *testing.T) {
	sys, _ := NewSystem(testOptions())
	u, _ := sys.NewUser(5, GLM, 9)
	rels, err := u.ReportHistory(10, []int{1, 2, 3})
	if err != nil {
		t.Fatal(err)
	}
	if len(rels) != 3 || rels[0].T != 10 || rels[2].T != 12 {
		t.Errorf("history releases = %+v", rels)
	}
	if len(sys.Records(5)) != 3 {
		t.Error("history not stored")
	}
}

func TestReportBatchShardedSystem(t *testing.T) {
	opts := testOptions()
	opts.StoreShards = 8
	sys, err := NewSystem(opts)
	if err != nil {
		t.Fatal(err)
	}
	u, err := sys.NewUser(3, GEM, 11)
	if err != nil {
		t.Fatal(err)
	}
	cells := make([]int, 20)
	for i := range cells {
		cells[i] = i % sys.NumCells()
	}
	rels, err := u.ReportBatch(0, cells)
	if err != nil {
		t.Fatal(err)
	}
	if len(rels) != 20 {
		t.Fatalf("releases = %d, want 20", len(rels))
	}
	recs := sys.Records(3)
	if len(recs) != 20 {
		t.Fatalf("stored = %d, want 20", len(recs))
	}
	for i, rec := range recs {
		if rec.T != i {
			t.Fatalf("record %d has T=%d, want time order", i, rec.T)
		}
	}
	// Bad input is rejected before any budget is spent or data stored.
	if _, err := u.ReportBatch(-1, []int{0}); err == nil {
		t.Error("negative fromT should error")
	}
	if _, err := u.ReportBatch(30, []int{sys.NumCells()}); err == nil {
		t.Error("out-of-range cell should error")
	}
	if len(sys.Records(3)) != 20 {
		t.Error("rejected batches must store nothing")
	}
	// A policy update mid-stream is picked up by the next batch.
	sys.MarkInfected([]int{cells[0]})
	if _, err := u.ReportBatch(20, cells[:5]); err != nil {
		t.Fatal(err)
	}
	if u.PolicyVersion() != sys.PolicyVersion(3) {
		t.Errorf("batch did not refresh policy: user=%d system=%d",
			u.PolicyVersion(), sys.PolicyVersion(3))
	}
}

func TestMovementMatrixFacade(t *testing.T) {
	sys, _ := NewSystem(testOptions())
	u, _ := sys.NewUser(1, GEM, 1)
	_, _ = u.Report(0, 0)
	_, _ = u.Report(1, 63)
	flows := sys.MovementMatrix(0, 1, 4, 4)
	total := 0
	for _, row := range flows {
		for _, v := range row {
			total += v
		}
	}
	if total != 1 {
		t.Errorf("total flows = %d, want 1", total)
	}
}

func TestPolicyConstructors(t *testing.T) {
	o := testOptions()
	base, err := BaselinePolicy(o)
	if err != nil {
		t.Fatal(err)
	}
	if base.NumEdges() == 0 {
		t.Error("baseline should have edges")
	}
	mon, err := MonitoringPolicy(o, 4)
	if err != nil {
		t.Fatal(err)
	}
	if mon.NumEdges() == 0 {
		t.Error("monitoring policy should have edges")
	}
	if _, err := MonitoringPolicy(o, 0); err == nil {
		t.Error("zero block should error")
	}
	gc := ContactTracingPolicy(base, []int{5})
	iso := gc.IsolatedCells()
	foundFive := false
	for _, c := range iso {
		if c == 5 {
			foundFive = true
		}
	}
	if !foundFive {
		t.Error("cell 5 should be isolated in Gc")
	}
	custom, err := CustomPolicy(o, [][2]int{{0, 1}, {1, 2}})
	if err != nil {
		t.Fatal(err)
	}
	if custom.NumEdges() != 2 {
		t.Errorf("custom edges = %d", custom.NumEdges())
	}
	if _, err := CustomPolicy(o, [][2]int{{0, 99}}); err == nil {
		t.Error("bad edge should error")
	}
	// System with a custom default policy.
	o2 := o
	o2.PolicyGraph = mon
	if _, err := NewSystem(o2); err != nil {
		t.Errorf("system with custom policy: %v", err)
	}
}

func TestAuditPrivacy(t *testing.T) {
	sys, _ := NewSystem(testOptions())
	u, _ := sys.NewUser(1, GEM, 2)
	e, err := u.AuditPrivacy(200)
	if err != nil {
		t.Fatal(err)
	}
	if e <= 0 {
		t.Errorf("adversary error = %v, want positive under ε=1", e)
	}
}

func TestWindowBudgetEnforced(t *testing.T) {
	o := testOptions()
	o.WindowSteps = 3
	o.WindowEpsilon = 2 // ε=1 per release → 2 releases per 3-step window
	sys, err := NewSystem(o)
	if err != nil {
		t.Fatal(err)
	}
	u, err := sys.NewUser(1, GEM, 5)
	if err != nil {
		t.Fatal(err)
	}
	if _, err := u.Report(0, 3); err != nil {
		t.Fatal(err)
	}
	if _, err := u.Report(1, 3); err != nil {
		t.Fatal(err)
	}
	if _, err := u.Report(2, 3); err == nil {
		t.Error("third release in window should exhaust budget")
	}
	// The window slides: t=3 drops the spend at t=0.
	if _, err := u.Report(3, 3); err != nil {
		t.Errorf("release after window slide failed: %v", err)
	}
	// Mismatched window options rejected.
	bad := testOptions()
	bad.WindowSteps = 5
	if _, err := NewSystem(bad); err == nil {
		t.Error("WindowSteps without WindowEpsilon should error")
	}
}

func TestVerifyMechanismFacade(t *testing.T) {
	o := testOptions()
	base, err := BaselinePolicy(o)
	if err != nil {
		t.Fatal(err)
	}
	for _, kind := range []MechanismKind{GEM, GEME, GLM, PIM} {
		ok, ratio, err := VerifyMechanism(o, base, 1, kind, 10, 3)
		if err != nil {
			t.Fatalf("%s: %v", kind, err)
		}
		if !ok {
			t.Errorf("%s violates its own policy (ratio %v)", kind, ratio)
		}
		if ratio <= 0 || ratio > 1+1e-6 {
			t.Errorf("%s normalized ratio = %v", kind, ratio)
		}
	}
	// A mechanism audited against a tighter policy than it was built for
	// must fail. Build a custom single-edge policy between distant cells:
	// the grid-calibrated mechanisms cannot hide a 60-cell gap at ε=0.5.
	far, err := CustomPolicy(o, [][2]int{{0, 63}})
	if err != nil {
		t.Fatal(err)
	}
	ok, _, err := VerifyMechanism(o, far, 0.5, GeoInd, 10, 4)
	if err != nil {
		t.Fatal(err)
	}
	if ok {
		t.Error("Geo-I baseline should fail a long-range policy edge")
	}
	if _, _, err := VerifyMechanism(o, base, 0, GEM, 10, 1); err == nil {
		t.Error("zero eps should error")
	}
}

func TestSystemAnalyticsFacade(t *testing.T) {
	sys, _ := NewSystem(testOptions())
	u, _ := sys.NewUser(1, GEM, 3)
	if _, err := u.Report(0, 10); err != nil {
		t.Fatal(err)
	}
	if _, err := u.Report(1, 10); err != nil {
		t.Fatal(err)
	}
	series, err := sys.DensitySeries(0, 1, 4, 4)
	if err != nil {
		t.Fatal(err)
	}
	if len(series) != 2 {
		t.Fatalf("series length = %d", len(series))
	}
	total := 0
	for _, counts := range series {
		for _, c := range counts {
			total += c
		}
	}
	if total != 2 {
		t.Errorf("series total = %d, want 2", total)
	}
	sys.MarkInfected([]int{10, 11})
	if _, err := u.Report(2, 10); err != nil { // exact disclosure under Gc
		t.Fatal(err)
	}
	exposure, err := sys.ExposureSeries(2, 2)
	if err != nil {
		t.Fatal(err)
	}
	if exposure[0] != 1 {
		t.Errorf("exposure = %v", exposure)
	}
	census := sys.HealthCodeCensus(0, -1)
	n := census[CodeGreen] + census[CodeYellow] + census[CodeRed]
	if n != 1 {
		t.Errorf("census covers %d users, want 1", n)
	}
	if _, err := sys.DensitySeries(2, 0, 4, 4); err == nil {
		t.Error("inverted range should error")
	}
}

func TestHTTPHandlerFacade(t *testing.T) {
	sys, _ := NewSystem(testOptions())
	ts := httptest.NewServer(sys.Handler())
	defer ts.Close()
	resp, err := http.Get(ts.URL + "/v1/policy?user=1")
	if err != nil {
		t.Fatal(err)
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		t.Fatalf("policy endpoint status %d", resp.StatusCode)
	}
	var body struct {
		Epsilon float64 `json:"epsilon"`
		Version int     `json:"version"`
	}
	if err := json.NewDecoder(resp.Body).Decode(&body); err != nil {
		t.Fatal(err)
	}
	if body.Epsilon != 1 || body.Version != 1 {
		t.Errorf("policy body = %+v", body)
	}
}
