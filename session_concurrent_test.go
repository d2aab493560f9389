package metainsight_test

import (
	"context"
	"errors"
	"fmt"
	"sync"
	"testing"

	"metainsight"
	"metainsight/internal/engine"
)

// TestSessionConcurrentAnalyze drives one shared session from many
// goroutines with heterogeneous requests — fault injection on, scans split
// into 64-row morsels run by concurrent scan goroutines — and checks every
// concurrent outcome against that request's sequential baseline.
// Hermeticity is the contract under test: concurrent calls share only
// read-only indexes and substrates, so interleaving must never change
// results or statistics. Run it under -race (CI does).
func TestSessionConcurrentAnalyze(t *testing.T) {
	tab := fracTable(t, 900)
	sess, err := metainsight.NewSession(tab,
		metainsight.WithMeasures(metainsight.Sum("Revenue"), metainsight.Sum("Margin")),
		metainsight.WithSubstrate(engine.NewColumnarSubstrate(tab,
			engine.WithMorselSize(64), engine.WithScanParallelism(2))),
		metainsight.WithResilience(metainsight.ResilienceConfig{
			Faults: metainsight.FaultPolicy{
				Seed:          17,
				TransientRate: 0.05,
				LatencyRate:   0.1,
				LatencyUnits:  2,
			},
			Retry: metainsight.RetryPolicy{}.WithDefaults(),
		}))
	if err != nil {
		t.Fatal(err)
	}
	defer sess.Close()

	reqs := []metainsight.Request{
		{TopK: 5},
		{TopK: 3, Tau: 0.7},
		{TopK: 4, Tau: 0.4},
		{TopK: 5, MaxFilters: 2},
	}
	analyze := func(req metainsight.Request) (runFacts, error) {
		an, err := sess.Analyze(context.Background(), req)
		if err != nil && !errors.Is(err, metainsight.ErrDegraded) {
			return runFacts{}, err
		}
		return factsOf(an.Result, an.Insights), nil
	}

	base := make([]runFacts, len(reqs))
	for i, req := range reqs {
		facts, err := analyze(req)
		if err != nil {
			t.Fatalf("baseline %d: %v", i, err)
		}
		if len(facts.keys) == 0 {
			t.Fatalf("baseline %d mined nothing", i)
		}
		if facts.stats.Retries == 0 {
			t.Fatalf("baseline %d: 5%% transient rate produced no retries", i)
		}
		base[i] = facts
	}

	const goroutines = 4
	type outcome struct {
		who   string
		idx   int
		facts runFacts
		err   error
	}
	results := make(chan outcome, goroutines*len(reqs))
	var wg sync.WaitGroup
	for g := 0; g < goroutines; g++ {
		wg.Add(1)
		go func(g int) {
			defer wg.Done()
			for i := range reqs {
				idx := (i + g) % len(reqs) // each goroutine walks a different order
				facts, err := analyze(reqs[idx])
				results <- outcome{who: fmt.Sprintf("g%d/req%d", g, idx), idx: idx, facts: facts, err: err}
			}
		}(g)
	}
	wg.Wait()
	close(results)
	for o := range results {
		if o.err != nil {
			t.Fatalf("%s: %v", o.who, o.err)
		}
		requireSameFacts(t, o.who, base[o.idx], o.facts)
	}
}
