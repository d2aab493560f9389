package metainsight_test

import (
	"context"
	"encoding/json"
	"errors"
	"path/filepath"
	"testing"

	"metainsight"
)

func mineJSON(t *testing.T, res *metainsight.MiningResult) string {
	t.Helper()
	b, err := json.Marshal(res.MetaInsights)
	if err != nil {
		t.Fatal(err)
	}
	return string(b)
}

// TestCheckpointResumePublicAPI drives the crash-recovery loop end to end
// through the public options: a checkpointed run is cancelled mid-flight,
// then resumed — at a different worker count — and must finish with exactly
// the results of a run that was never interrupted.
func TestCheckpointResumePublicAPI(t *testing.T) {
	header, records := houseRecords()
	tab, err := metainsight.FromRecords("houses", header, records)
	if err != nil {
		t.Fatal(err)
	}

	full, err := metainsight.NewSession(tab,
		metainsight.WithDurability(metainsight.DurabilityConfig{
			CheckpointDir: filepath.Join(t.TempDir(), "full"), Every: 8}),
		metainsight.WithWorkers(4))
	if err != nil {
		t.Fatal(err)
	}
	fullAn, err := full.Analyze(context.Background(), metainsight.Request{})
	if err != nil {
		t.Fatalf("uninterrupted checkpointed run failed: %v", err)
	}
	fullRes := fullAn.Result
	if len(fullRes.MetaInsights) == 0 {
		t.Fatal("uninterrupted run mined nothing")
	}
	if fullRes.Stats.CheckpointWrites == 0 {
		t.Fatal("checkpointed run reported zero CheckpointWrites")
	}

	// Interrupted run: cancel as soon as mining proves it is underway. The
	// cancellation point is nondeterministic — resume correctness must not
	// depend on where the run stopped.
	dir := filepath.Join(t.TempDir(), "ck")
	ctx, cancel := context.WithCancel(context.Background())
	interrupted, err := metainsight.NewSession(tab,
		metainsight.WithDurability(metainsight.DurabilityConfig{CheckpointDir: dir, Every: 8}),
		metainsight.WithWorkers(4))
	if err != nil {
		t.Fatal(err)
	}
	intAn, err := interrupted.Analyze(ctx, metainsight.Request{
		Progress: func(*metainsight.MetaInsight) { cancel() },
	})
	cancel()
	if err != nil {
		t.Fatalf("interrupted run failed: %v", err)
	}
	intRes := intAn.Result
	if !intRes.Stats.Cancelled {
		// The run may have finished before the first discovery's cancel
		// landed; that leaves nothing to resume meaningfully, but resuming
		// must still work (covered below either way).
		t.Log("run completed before cancellation took effect")
	}

	resumed, err := metainsight.NewSession(tab,
		metainsight.WithDurability(metainsight.DurabilityConfig{CheckpointDir: dir, Resume: true}),
		metainsight.WithWorkers(2))
	if err != nil {
		t.Fatal(err)
	}
	resAn, err := resumed.Analyze(context.Background(), metainsight.Request{TopK: 5})
	if err != nil {
		t.Fatalf("resumed run failed: %v", err)
	}
	resRes := resAn.Result
	if mineJSON(t, resRes) != mineJSON(t, fullRes) {
		t.Fatal("resumed run's MetaInsights differ from the uninterrupted run's")
	}
	a, b := fullRes.Stats, resRes.Stats
	// ResumedUnits only exists on the resumed side; the cancel-time final
	// snapshot is one extra write the uninterrupted run never made.
	a.ResumedUnits, b.ResumedUnits = 0, 0
	a.CheckpointWrites, b.CheckpointWrites = 0, 0
	a.Cancelled, b.Cancelled = false, false
	if a != b {
		t.Fatalf("resumed stats differ from uninterrupted:\n resumed %+v\n full %+v", b, a)
	}
	if len(resAn.Insights) == 0 {
		t.Fatal("ranking the resumed result returned nothing")
	}
}

// TestCheckpointPublicErrors verifies the re-exported typed errors surface
// through the public API.
func TestCheckpointPublicErrors(t *testing.T) {
	header, records := houseRecords()
	tab, err := metainsight.FromRecords("houses", header, records)
	if err != nil {
		t.Fatal(err)
	}
	dir := filepath.Join(t.TempDir(), "ck")

	run := func(c metainsight.DurabilityConfig, req metainsight.Request) error {
		t.Helper()
		s, err := metainsight.NewSession(tab, metainsight.WithDurability(c))
		if err != nil {
			t.Fatal(err)
		}
		an, err := s.Analyze(context.Background(), req)
		if an == nil {
			t.Fatalf("Analyze returned no analysis: %v", err)
		}
		return an.Result.Err
	}
	fresh := metainsight.DurabilityConfig{CheckpointDir: dir, Every: 8}
	resume := metainsight.DurabilityConfig{CheckpointDir: dir, Resume: true}

	if err := run(fresh, metainsight.Request{}); err != nil {
		t.Fatal(err)
	}

	// A fresh checkpointed run must refuse the already-used directory.
	if err := run(fresh, metainsight.Request{}); !errors.Is(err, metainsight.ErrCheckpointExists) {
		t.Fatalf("fresh run over an existing checkpoint returned %v, want ErrCheckpointExists", err)
	}

	// Resuming under a different configuration must be refused.
	if err := run(resume, metainsight.Request{Tau: 0.9}); !errors.Is(err, metainsight.ErrCheckpointMismatch) {
		t.Fatalf("resume under a different config returned %v, want ErrCheckpointMismatch", err)
	}

	// Resuming a directory that was never checkpointed.
	missing := metainsight.DurabilityConfig{CheckpointDir: filepath.Join(t.TempDir(), "missing"), Resume: true}
	if err := run(missing, metainsight.Request{}); !errors.Is(err, metainsight.ErrNoCheckpoint) {
		t.Fatalf("resume of a missing directory returned %v, want ErrNoCheckpoint", err)
	}
}
