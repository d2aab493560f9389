package main

import (
	"encoding/json"
	"fmt"
	"io"
	"os"
)

// metricDef names one reported metric and its unit.
type metricDef struct {
	Name string `json:"name"`
	Unit string `json:"unit"`
}

// catalogFile is the benchmark's definition at the root of the checkout,
// the one list of metric names and units: untraced runs (--trace 0) print
// its end_to_end metrics, traced runs (--trace 1) its per_layer metrics.
const catalogFile = "BENCHMARK.json"

// loadCatalog reads the metrics a run in the given mode must print.
func loadCatalog(path string, trace bool) ([]metricDef, error) {
	data, err := os.ReadFile(path)
	if err != nil {
		return nil, err
	}
	var bench struct {
		EndToEnd []metricDef `json:"end_to_end"`
		PerLayer []metricDef `json:"per_layer"`
	}
	if err := json.Unmarshal(data, &bench); err != nil {
		return nil, fmt.Errorf("%s: %w", path, err)
	}
	defs := bench.EndToEnd
	if trace {
		defs = bench.PerLayer
	}
	if len(defs) == 0 {
		return nil, fmt.Errorf("%s lists no metrics for this mode", path)
	}
	return defs, nil
}

type metricValue struct {
	Value float64 `json:"value"`
	Unit  string  `json:"unit"`
}

// result is the last line a run prints.
type result struct {
	Correct   bool                   `json:"correct"`
	Attempted int                    `json:"attempted"`
	Failed    int                    `json:"failed"`
	Metrics   map[string]metricValue `json:"metrics"`
}

// tally counts operations and how they went.
type tally struct {
	attempted, failed int
	// mismatches counts outputs that differ from the oracle; errors counts
	// operations that failed for a reason other than load shedding.
	mismatches, errors int
}

func (t *tally) add(o tally) {
	t.attempted += o.attempted
	t.failed += o.failed
	t.mismatches += o.mismatches
	t.errors += o.errors
}

// writeResult prints the result line with exactly the metrics defs lists;
// a value missing from values is a defect of the benchmark and is reported
// as an error.
func writeResult(w io.Writer, t tally, values map[string]float64, defs []metricDef) error {
	res := result{
		Correct:   t.mismatches == 0 && t.errors == 0 && t.attempted > t.failed,
		Attempted: t.attempted,
		Failed:    t.failed,
		Metrics:   make(map[string]metricValue, len(defs)),
	}
	for _, d := range defs {
		v, ok := values[d.Name]
		if !ok {
			return fmt.Errorf("metric %s was not measured", d.Name)
		}
		res.Metrics[d.Name] = metricValue{Value: v, Unit: d.Unit}
	}
	line, err := json.Marshal(res)
	if err != nil {
		return err
	}
	_, err = fmt.Fprintf(w, "%s\n", line)
	return err
}
