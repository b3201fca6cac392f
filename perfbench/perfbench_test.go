package main

import (
	"encoding/json"
	"os"
	"reflect"
	"regexp"
	"testing"
)

func TestGeneratorsDeterministicPerSeed(t *testing.T) {
	if a, b := genTenantRPC(7), genTenantRPC(7); !reflect.DeepEqual(a, b) {
		t.Fatal("tenant-rpc inputs differ for one seed")
	}
	if a, b := genTenantRPC(7), genTenantRPC(8); reflect.DeepEqual(a, b) {
		t.Fatal("tenant-rpc inputs identical for two seeds")
	}
	for w := 1; w <= 5; w++ {
		if a, b := admitWave(7, w), admitWave(7, w); !reflect.DeepEqual(a, b) {
			t.Fatalf("fleet-admit wave %d differs for one seed", w)
		}
	}
	if a, b := admitWave(7, 1), admitWave(8, 1); reflect.DeepEqual(a, b) {
		t.Fatal("fleet-admit wave identical for two seeds")
	}
	if geoSeed(7, 0) != 7 || geoSeed(7, 1) == geoSeed(8, 1) {
		t.Fatal("geo-ring fleet seeds do not follow the run seed")
	}
}

// TestTenantRPCSchedule pins the command schedule's shape: the capture
// point sees logged commands, and live additions stay within the hosts'
// guest PCPUs.
func TestTenantRPCSchedule(t *testing.T) {
	in := genTenantRPC(defaultSeed)
	before, adds := 0, 0
	for q, cmds := range in.cmds {
		for _, c := range cmds {
			if q <= rpcCapture {
				before++
			}
			if c.Cmd == "add-tenant" {
				adds++
			}
		}
	}
	if before == 0 {
		t.Fatal("no command lands before the snapshot")
	}
	if adds > rpcMaxAdds {
		t.Fatalf("%d live additions, limit %d", adds, rpcMaxAdds)
	}
}

func TestFleetAdmitWorkerWidthInvariance(t *testing.T) {
	type outcome struct {
		fp                 uint64
		coloc              float64
		trades             int64
		lsBound, lsExposed int
	}
	run := func(workers int) outcome {
		f := buildAdmitFleet(3, 200, workers)
		for w := 1; w <= 30; w++ {
			f.admitStep(3, w, nil, nil)
		}
		var trades int64
		for _, bk := range f.books {
			trades += bk.TradeCount()
		}
		return outcome{f.sched.BindFNV(), colocPct(f.store.Snapshot()), trades, f.lsBound, f.lsExposed}
	}
	if a, b := run(1), run(2); a != b {
		t.Fatalf("workers 1: %+v; workers 2: %+v", a, b)
	}
}

func TestGeoRingWorkerWidthInvariance(t *testing.T) {
	a, err := runGeoFleet(5, 1, nil, false)
	if err != nil {
		t.Fatal(err)
	}
	b, err := runGeoFleet(5, 2, nil, false)
	if err != nil {
		t.Fatal(err)
	}
	if a.row != b.row || a.okSlices != b.okSlices {
		t.Fatalf("workers 1: %+v (%d ok); workers 2: %+v (%d ok)", a.row, a.okSlices, b.row, b.okSlices)
	}
}

func TestTailPercentileRule(t *testing.T) {
	cases := []struct {
		n    int
		want float64
	}{
		{10000, 99}, {1000, 99}, {999, 98}, {500, 98}, {499, 95},
		{200, 95}, {100, 90}, {40, 75}, {20, 50}, {19, 0}, {0, 0},
	}
	for _, c := range cases {
		if got := tailPercentile(c.n); got != c.want {
			t.Errorf("tailPercentile(%d) = %v, want %v", c.n, got, c.want)
		}
	}
	// The rule itself: at least minBeyond samples beyond the chosen
	// percentile, fewer beyond the next one up.
	for n := 20; n <= 5000; n++ {
		p := tailPercentile(n)
		if n-rank(n, p) < minBeyond {
			t.Fatalf("n=%d: p%v leaves %d samples beyond", n, p, n-rank(n, p))
		}
		for i, q := range tailLadder {
			if q == p && i > 0 && n-rank(n, tailLadder[i-1]) >= minBeyond {
				t.Fatalf("n=%d: p%v chosen but p%v also qualifies", n, p, tailLadder[i-1])
			}
		}
	}
	var tm timings
	for i := 1; i <= 1000; i++ {
		tm.ns = append(tm.ns, int64(i)*1e6)
	}
	if got := tm.percentile(99); got != 990 {
		t.Fatalf("p99 of 1..1000 ms = %v, want 990", got)
	}
}

var (
	nameRE = regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	unitRE = regexp.MustCompile(`^[A-Za-z0-9_/%.-]{1,16}$`)
)

func TestMetricNamesAndBenchmarkFile(t *testing.T) {
	seen := map[string]bool{}
	for _, d := range append(append([]metricDef(nil), endToEnd...), perLayer...) {
		if !nameRE.MatchString(d.name) || !unitRE.MatchString(d.unit) {
			t.Errorf("bad metric %q unit %q", d.name, d.unit)
		}
		if d.better != "lower" && d.better != "higher" {
			t.Errorf("metric %q: better %q", d.name, d.better)
		}
		if seen[d.name] {
			t.Errorf("metric %q listed twice", d.name)
		}
		seen[d.name] = true
	}

	raw, err := os.ReadFile("../BENCHMARK.json")
	if err != nil {
		t.Fatal(err)
	}
	var doc struct {
		Workloads []struct{ Name string }
		EndToEnd  []struct{ Name, Unit, Better string } `json:"end_to_end"`
		PerLayer  []struct{ Name, Unit, Better string } `json:"per_layer"`
	}
	if err := json.Unmarshal(raw, &doc); err != nil {
		t.Fatal(err)
	}
	check := func(kind string, got []struct{ Name, Unit, Better string }, want []metricDef) {
		if len(got) != len(want) {
			t.Fatalf("%s: BENCHMARK.json lists %d metrics, catalog %d", kind, len(got), len(want))
		}
		for i, w := range want {
			if g := got[i]; g.Name != w.name || g.Unit != w.unit || g.Better != w.better {
				t.Errorf("%s[%d]: BENCHMARK.json %+v, catalog %+v", kind, i, g, w)
			}
		}
	}
	check("end_to_end", doc.EndToEnd, endToEnd)
	check("per_layer", doc.PerLayer, perLayer)
	if len(doc.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json lists %d workloads, the benchmark %d", len(doc.Workloads), len(workloads))
	}
	for _, w := range doc.Workloads {
		if workloads[w.Name] == nil {
			t.Errorf("BENCHMARK.json workload %q has no runner", w.Name)
		}
	}
}

// TestRecordedSeeds runs every workload's checked prefix, traced, on each
// recorded seed: the run must pass its checks, reproduce the recorded
// fingerprint, and emit only catalogued spans.
func TestRecordedSeeds(t *testing.T) {
	if testing.Short() {
		t.Skip("runs every workload's checked prefix")
	}
	for name, run := range workloads {
		for seed := range recordedFingerprints[name] {
			tr := newTracer("test")
			rep, err := run(seed, 0, tr)
			if err != nil {
				t.Fatalf("%s seed %d: %v", name, seed, err)
			}
			if rep.failed != 0 {
				t.Errorf("%s seed %d: %v", name, seed, rep.problems)
			}
			for span := range tr.selfTimes() {
				if !catalogued(perLayer, "self."+span+"_ms") {
					t.Errorf("%s: span %q has no self-time metric", name, span)
				}
			}
		}
	}
}

func catalogued(defs []metricDef, name string) bool {
	for _, d := range defs {
		if d.name == name {
			return true
		}
	}
	return false
}
