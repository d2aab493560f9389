package main

import (
	"bytes"
	"context"
	"encoding/json"
	"math"
	"net/http"
	"net/http/httptest"
	"os"
	"path/filepath"
	"runtime"
	"sync"
	"testing"
	"time"

	"metainsight"
	"metainsight/internal/engine"
)

func TestPercentileUsesSampleCount(t *testing.T) {
	xs := make([]float64, 100)
	for i := range xs {
		xs[i] = float64(100 - i) // unsorted on purpose
	}
	for _, c := range []struct {
		p    float64
		want float64
	}{{0.5, 50}, {0.9, 90}, {0.99, 99}, {1, 100}} {
		got, n := percentile(xs, c.p)
		if got != c.want || n != 100 {
			t.Errorf("p%v of 1..100 = %v over n=%d, want %v over n=100", c.p*100, got, n, c.want)
		}
	}
	// With 10 samples the nearest-rank p90 is the 9th: one sample beyond.
	if got, n := percentile(xs[90:], 0.9); got != 9 || n != 10 {
		t.Errorf("p90 of 1..10 = %v over n=%d, want 9 over n=10", got, n)
	}
	if xs[0] != 100 {
		t.Error("percentile reordered its input")
	}
	if got, n := percentile(nil, 0.5); got != 0 || n != 0 {
		t.Errorf("percentile of no samples = %v over n=%d", got, n)
	}
}

func TestPoissonScheduleIsDeterministic(t *testing.T) {
	a := poissonSchedule(7, 14, 15*time.Second)
	b := poissonSchedule(7, 14, 15*time.Second)
	c := poissonSchedule(8, 14, 15*time.Second)
	if len(a) != 210 {
		t.Fatalf("%d arrivals, want rate·duration = 210", len(a))
	}
	same := true
	for i := range a {
		if a[i] != b[i] {
			t.Fatalf("arrival %d differs for the same seed: %v vs %v", i, a[i], b[i])
		}
		if i > 0 && a[i] < a[i-1] {
			t.Fatalf("schedule not sorted at %d", i)
		}
		if a[i] < 0 || a[i] >= 15*time.Second {
			t.Fatalf("arrival %d at %v is outside the run", i, a[i])
		}
		same = same && a[i] == c[i]
	}
	if same {
		t.Error("different seeds gave the same schedule")
	}
}

func TestPlanArrivalsHasFixedComposition(t *testing.T) {
	count := func(plan []arrival) (jobs int, pairs map[[3]int]int) {
		pairs = map[[3]int]int{}
		for _, a := range plan {
			if a.job {
				jobs++
			}
			k := 0
			if a.job {
				k = 1
			}
			pairs[[3]int{k, a.table, a.param}]++
		}
		return jobs, pairs
	}
	a := planArrivals(1, 210, 3, 6)
	b := planArrivals(2, 210, 3, 6)
	ja, pa := count(a)
	jb, pb := count(b)
	if ja != 21 || jb != 21 {
		t.Fatalf("jobs = %d and %d, want 21", ja, jb)
	}
	for k, n := range pa {
		if pb[k] != n {
			t.Fatalf("mix differs between seeds at %v: %d vs %d", k, n, pb[k])
		}
	}
	if c := planArrivals(1, 210, 3, 6); c[0] != a[0] || c[209] != a[209] {
		t.Error("the same seed gave a different order")
	}
}

func TestOpenLoopTimesFromDue(t *testing.T) {
	// Both arrivals are already 200ms overdue when the loop starts, so the
	// generator is late by at least that much, and each latency covers the
	// lateness plus the operation's own 10ms.
	start := time.Now().Add(-200 * time.Millisecond)
	timings := openLoop(context.Background(), start, []time.Duration{0, 50 * time.Millisecond},
		func(int, time.Time) { time.Sleep(10 * time.Millisecond) })
	for i, tm := range timings {
		overdue := 200*time.Millisecond - time.Duration(i)*50*time.Millisecond
		if tm.Late < overdue {
			t.Errorf("arrival %d: late %v, want >= %v", i, tm.Late, overdue)
		}
		if tm.Latency < tm.Late+10*time.Millisecond {
			t.Errorf("arrival %d: latency %v does not cover lateness %v plus the operation", i, tm.Latency, tm.Late)
		}
	}
}

func TestClientStaysWithinNprocConnections(t *testing.T) {
	srv := httptest.NewServer(http.HandlerFunc(func(w http.ResponseWriter, r *http.Request) {
		time.Sleep(5 * time.Millisecond)
		w.WriteHeader(http.StatusOK)
	}))
	defer srv.Close()
	nproc := runtime.NumCPU()
	client, conns := newLimitedClient(nproc)
	var wg sync.WaitGroup
	for i := 0; i < 8*nproc; i++ {
		wg.Add(1)
		go func() {
			defer wg.Done()
			status, err := call(context.Background(), client, http.MethodGet, srv.URL, "", nil, nil)
			if err != nil || status != http.StatusOK {
				t.Errorf("request failed: %d %v", status, err)
			}
		}()
	}
	wg.Wait()
	if p := conns.peak.Load(); p < 1 || p > int64(nproc) {
		t.Fatalf("peak open connections %d, want 1..%d", p, nproc)
	}
}

// smallTable generates and loads one serve-mixed table.
func smallTable(t *testing.T) *metainsight.Dataset {
	t.Helper()
	path := filepath.Join(t.TempDir(), "cc0.csv")
	if _, err := writeTable(path, workloadTables("serve-mixed")[0], 0, 1); err != nil {
		t.Fatal(err)
	}
	tab, err := readTable(path)
	if err != nil {
		t.Fatal(err)
	}
	return tab
}

func TestGeneratorIsSeeded(t *testing.T) {
	dir := t.TempDir()
	spec := workloadTables("analyze-small")[0]
	read := func(name string, seed int64) []byte {
		p := filepath.Join(dir, name)
		if _, err := writeTable(p, spec, 0, seed); err != nil {
			t.Fatal(err)
		}
		data, err := os.ReadFile(p)
		if err != nil {
			t.Fatal(err)
		}
		return data
	}
	a, b, c := read("a.csv", 3), read("b.csv", 3), read("c.csv", 4)
	if !bytes.Equal(a, b) {
		t.Error("the same seed gave different inputs")
	}
	if bytes.Equal(a, c) {
		t.Error("different seeds gave the same inputs")
	}
}

// hiddenPlanner wraps a substrate without forwarding engine.RowPlanner.
type hiddenPlanner struct{ engine.Substrate }

func TestTimingDecoratorKeepsDigests(t *testing.T) {
	tab := smallTable(t)
	for _, p := range serveParams() {
		want, err := oracleDigest(tab, p.req)
		if err != nil {
			t.Fatal(err)
		}
		ts, err := newTracedSession(tab, p.req)
		if err != nil {
			t.Fatal(err)
		}
		an, err := ts.sess.Analyze(context.Background(), p.req)
		if err != nil {
			t.Fatal(err)
		}
		if got, _ := analysisDigest(an); got != want {
			t.Errorf("%+v: decorated session's digest differs from the plain session's", p.wire)
		}
		if c := ts.scan.counts(); c.unit+c.aug == 0 || c.busy <= 0 {
			t.Errorf("%+v: decorator saw no scans: %+v", p.wire, c)
		}
	}

	// The forwarding matters: hiding RowPlanner changes cost accounting.
	req := serveParams()[0].req
	want, err := oracleDigest(tab, req)
	if err != nil {
		t.Fatal(err)
	}
	sess, err := metainsight.NewSession(tab, metainsight.WithSubstrate(hiddenPlanner{
		engine.NewColumnarSubstrate(tab, engine.WithMinMaxColumns(minMaxColumns(req)))}))
	if err != nil {
		t.Fatal(err)
	}
	an, err := sess.Analyze(context.Background(), req)
	if err != nil {
		t.Fatal(err)
	}
	if got, _ := analysisDigest(an); got == want {
		t.Error("a substrate without RowPlanner gave the same digest; the forwarding check has no teeth")
	}
}

func TestJobDigestIgnoresDurableFields(t *testing.T) {
	tab := smallTable(t)
	sess, err := metainsight.NewSession(tab)
	if err != nil {
		t.Fatal(err)
	}
	an, err := sess.Analyze(context.Background(), metainsight.Request{TopK: 10})
	if err != nil {
		t.Fatal(err)
	}
	want, err := analysisDigest(an)
	if err != nil {
		t.Fatal(err)
	}
	ins, _ := json.Marshal(an.Insights)
	st := an.Result.Stats
	st.CheckpointWrites, st.ResumedUnits, st.Cancelled = 12, 40, true
	durable, _ := json.Marshal(st)
	if jobDigest(ins, durable) != want {
		t.Error("job digest depends on checkpoint_writes, resumed_units or cancelled")
	}
	st.PatternsFound++
	other, _ := json.Marshal(st)
	if jobDigest(ins, other) == want {
		t.Error("job digest ignores a field it must check")
	}
}

func TestCatalogNamesEveryWorkloadAndMetric(t *testing.T) {
	for _, trace := range []bool{false, true} {
		defs, err := loadCatalog("../"+catalogFile, trace)
		if err != nil {
			t.Fatal(err)
		}
		for _, d := range defs {
			if d.Name == "" || d.Unit == "" {
				t.Errorf("trace=%v: metric %+v lacks a name or unit", trace, d)
			}
		}
	}
	data, err := os.ReadFile("../" + catalogFile)
	if err != nil {
		t.Fatal(err)
	}
	var bench struct{ Workloads []struct{ Name string } }
	if err := json.Unmarshal(data, &bench); err != nil {
		t.Fatal(err)
	}
	for _, w := range bench.Workloads {
		if workloadTables(w.Name) == nil {
			t.Errorf("workload %s has no tables", w.Name)
		}
	}
}

func TestWriteResultReportsExactlyTheCatalog(t *testing.T) {
	defs := []metricDef{{"a_ms", "ms"}, {"b", "count"}}
	var buf bytes.Buffer
	if err := writeResult(&buf, tally{attempted: 3}, map[string]float64{"a_ms": 1.5, "b": 2, "extra": 9}, defs); err != nil {
		t.Fatal(err)
	}
	var res result
	if err := json.Unmarshal(buf.Bytes(), &res); err != nil {
		t.Fatal(err)
	}
	if !res.Correct || len(res.Metrics) != 2 || res.Metrics["a_ms"] != (metricValue{1.5, "ms"}) {
		t.Fatalf("got %+v", res)
	}
	if err := writeResult(&buf, tally{attempted: 1}, map[string]float64{"a_ms": 1}, defs); err == nil {
		t.Fatal("a missing metric must be an error")
	}
}

func TestGeoMedianCountsEveryGroup(t *testing.T) {
	groups := map[int][]float64{0: {1, 2, 3}, 1: {100, 100}, 2: {10}}
	got, n := geoMedian(groups)
	if n != 6 || math.Abs(got-math.Cbrt(2*100*10)) > 1e-9 {
		t.Fatalf("geoMedian = %v over %d, want cbrt(2000) over 6", got, n)
	}
	// Halving one group's cost moves the result even though the pooled
	// median would stay inside another group's cluster.
	groups[2] = []float64{5}
	if faster, _ := geoMedian(groups); !(faster < got) {
		t.Fatalf("a faster group did not lower the result: %v vs %v", faster, got)
	}
	if g, n := geoMedian(nil); g != 0 || n != 0 {
		t.Fatalf("no samples: got %v over %d", g, n)
	}
}
