// The smoke test runs all four workloads at toy sizes and holds what
// they report against BENCHMARK.json; the remaining tests pin the
// arithmetic the verdicts rest on.
package main

import (
	"bytes"
	"encoding/json"
	"math"
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
	"time"
)

const contractPath = "../BENCHMARK.json"

// smokeSizes keep the four workloads under ten seconds together: 16
// messages a round, 200 in the storm's flood.
var smokeSizes = sizes{
	setups: 1, warmup: 8, round: 16,
	interval: 250 * time.Millisecond, serveRate: 40,
	pacedRate: 1000, paced: 100 * time.Millisecond, window: 25 * time.Millisecond,
	flood: 200, offenders: 4,
}

func TestSmoke(t *testing.T) {
	var c contract
	if err := readJSON(contractPath, &c); err != nil {
		t.Fatal(err)
	}
	name := regexp.MustCompile(`^[A-Za-z0-9][A-Za-z0-9_.-]{0,63}$`)
	check := func(w string, values map[string]float64, defs []metricDef) {
		t.Helper()
		units := map[string]string{}
		for _, d := range defs {
			units[d.name] = d.unit
		}
		for n, v := range values {
			if !name.MatchString(n) || units[n] == "" {
				t.Errorf("%s: metric %q has no valid name or no unit", w, n)
			}
			if math.IsNaN(v) || math.IsInf(v, 0) {
				t.Errorf("%s: metric %s = %v", w, n, v)
			}
		}
	}

	if len(c.Workloads) != len(workloads) {
		t.Fatalf("BENCHMARK.json names %d workloads, the benchmark has %d", len(c.Workloads), len(workloads))
	}
	for i, w := range workloads {
		if c.Workloads[i].Name != w.name {
			t.Errorf("workload %d is %q in BENCHMARK.json, %q in the benchmark", i, c.Workloads[i].Name, w.name)
		}
		r := &run{w: w, g: newGen(7), sz: smokeSizes, seconds: 0.5, tmp: t.TempDir(), log: newObsLog()}
		if err := r.execute(); err != nil {
			t.Fatalf("%s: %v", w.name, err)
		}
		if r.failed != 0 || r.attempt == 0 {
			t.Errorf("%s: %d of %d operations failed: %v", w.name, r.failed, r.attempt, r.failures)
		}
		e2e := r.endToEndMetrics()
		check(w.name, e2e, endToEnd)
		if _, err := (&measured{values: e2e}).report(endToEnd); err != nil {
			t.Errorf("%s: %v", w.name, err)
		}
		for n, v := range e2e {
			if v <= 0 {
				t.Errorf("%s: end-to-end metric %s = %v, want > 0", w.name, n, v)
			}
		}
		tr := r.buildTrace()
		if err := tr.write(t.TempDir(), w.name, 7); err != nil {
			t.Error(err)
		}
		check(w.name, r.layerMetrics(tr), perLayer)
		if share := tr.attributedShare(); share < 0.9 {
			t.Errorf("%s: child spans account for %.2f of the median round, want ≥ 0.90", w.name, share)
		}
	}

	// The tables in the code and in BENCHMARK.json are one list.
	if len(c.EndToEnd) != len(endToEnd) || len(c.PerLayer) != len(perLayer) {
		t.Fatalf("BENCHMARK.json has %d+%d metrics, the benchmark %d+%d", len(c.EndToEnd), len(c.PerLayer), len(endToEnd), len(perLayer))
	}
	for i, d := range endToEnd {
		if m := c.EndToEnd[i]; m.Name != d.name || m.Unit != d.unit || m.Bound <= 0 || m.Bound > 0.25 {
			t.Errorf("end-to-end metric %d: BENCHMARK.json has %+v, the benchmark %+v", i, m, d)
		}
	}
	for i, d := range perLayer {
		if m := c.PerLayer[i]; m.Name != d.name || m.Unit != d.unit {
			t.Errorf("per-layer metric %d: BENCHMARK.json has %+v, the benchmark %+v", i, m, d)
		}
	}
}

// Equal seeds give byte-identical input; other seeds do not.
func TestSeedIsTheOnlyRandomness(t *testing.T) {
	draw := func(seed uint64) (string, [][]byte) {
		g := newGen(seed)
		msgs := g.messages("w/messages", 32, 30)
		g.poisson("w/arrivals", 2000, 50*time.Millisecond)
		g.positions("w/offenders", 0, 100, 12)
		return g.sum(), msgs
	}
	sumA, msgsA := draw(11)
	sumB, msgsB := draw(11)
	sumC, _ := draw(12)
	if sumA != sumB || sumA == sumC {
		t.Errorf("input digests: seed 11 %s and %s, seed 12 %s", sumA, sumB, sumC)
	}
	for i := range msgsA {
		if !bytes.Equal(msgsA[i], msgsB[i]) {
			t.Fatalf("message %d differs between two draws of one seed", i)
		}
	}
}

func TestSpreadMatchesPythonQuantiles(t *testing.T) {
	// statistics.quantiles(range(1, 11), n=4) == [2.75, 5.5, 8.25]
	v := []float64{10, 1, 9, 2, 8, 3, 7, 4, 6, 5}
	if got, want := spread(v), (8.25-2.75)/5.5; math.Abs(got-want) > 1e-12 {
		t.Errorf("spread = %v, want %v", got, want)
	}
	if got, want := spread([]float64{90, 100, 110}), 0.2; math.Abs(got-want) > 1e-12 {
		t.Errorf("spread of three = %v, want the range %v", got, want)
	}
}

// A stretch in which the host runs slow moves the windows it covers and
// nothing else.
func TestUndisturbedIgnoresSlowStretch(t *testing.T) {
	quiet, disturbed := make([]float64, 60), make([]float64, 60)
	for i := range quiet {
		quiet[i], disturbed[i] = 5, 5
		if i >= 6 && i < 54 { // 80 % of the segment
			disturbed[i] = 6.5
		}
	}
	same := func(v float64) float64 { return v }
	if q, d := undisturbed(quiet, same), undisturbed(disturbed, same); q != d || q != 5 {
		t.Errorf("undisturbed window %v, with a slow stretch %v, want 5 for both", q, d)
	}
	if got := -undisturbed([]float64{2100, 2400, 1400}, func(v float64) float64 { return -v }); got != 2400 {
		t.Errorf("undisturbed rate of three rounds = %v, want the best, 2400", got)
	}
}

func TestSelfTimeIsDurationMinusChildCover(t *testing.T) {
	origin := time.Unix(0, 0)
	at := func(ms int) time.Time { return origin.Add(time.Duration(ms) * time.Millisecond) }
	tr := &trace{origin: origin}
	root := tr.add(0, 1, "round", at(0), at(100))
	tr.add(root, 1, "a", at(0), at(40))
	tr.add(root, 1, "b", at(30), at(70))  // overlaps a: covered once
	tr.add(root, 1, "c", at(90), at(120)) // clipped to the parent
	tr.fillSelf()
	if got := tr.spans[0].SelfUS; got != 20_000 {
		t.Errorf("root self time = %d µs, want 20000", got)
	}
	if got := tr.attributedShare(); math.Abs(got-0.8) > 1e-12 {
		t.Errorf("attributed share = %v, want 0.8", got)
	}
}

func TestCompareVerdicts(t *testing.T) {
	doc := func(latency ...float64) string {
		var d document
		for i, v := range latency {
			res := result{Correct: true, Attempted: 1, Metrics: map[string]value{}}
			for _, m := range endToEnd {
				res.Metrics[m.name] = value{100, m.unit}
			}
			res.Metrics["e2e_p50_ms"] = value{v, "ms"}
			d.Runs = append(d.Runs, suiteRun{Workload: "round_trap", Seed: uint64(i), Result: res})
		}
		body, err := json.Marshal(d)
		if err != nil {
			t.Fatal(err)
		}
		path := filepath.Join(t.TempDir(), "doc.json")
		if err := os.WriteFile(path, body, 0o644); err != nil {
			t.Fatal(err)
		}
		return path
	}
	verdict := func(a, b string) string {
		var out bytes.Buffer
		_ = compareFiles(a, b, contractPath, &out) // the verdict column is what is under test
		for _, line := range strings.Split(out.String(), "\n") {
			if f := strings.Fields(line); len(f) > 2 && f[0] == "round_trap" && f[1] == "e2e_p50_ms" {
				return f[len(f)-1]
			}
		}
		return out.String()
	}
	steady := doc(100, 101, 99, 100, 100)
	for _, tc := range []struct {
		change []float64
		want   string
	}{
		{[]float64{101, 100, 102, 101, 101}, "unchanged"},
		{[]float64{150, 151, 149, 150, 150}, "REGRESSED"},
		{[]float64{50, 51, 49, 50, 50}, "improved"},
		{[]float64{60, 150, 100, 140, 70}, "unresolved"},
	} {
		if got := verdict(steady, doc(tc.change...)); got != tc.want {
			t.Errorf("change %v: verdict %q, want %q", tc.change, got, tc.want)
		}
	}
}
