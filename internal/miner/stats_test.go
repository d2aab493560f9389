package miner

import (
	"bytes"
	"encoding/json"
	"testing"

	"metainsight/internal/cache"
)

// legacyStatsJSON is a Stats blob in the wire format written before the
// sharded-execution counters were removed: it still carries
// "speculative_reissues" and "shard_retries". Such blobs live on in
// checkpoint snapshots and in the daemon's journaled result.json records.
const legacyStatsJSON = `{"expand_units":1,"data_pattern_units":2,"metainsight_units":3,` +
	`"emitted_metainsight_units":4,"patterns_found":5,"pruned_1":6,"pruned_2":7,` +
	`"sstar_cut":8,"bound_skips":9,"bound_scan_skips":10,"prefetch_failures":11,` +
	`"failed_units":12,"retries":13,"breaker_trips":14,"speculative_reissues":15,` +
	`"shard_retries":16,"panicked_units":17,"evictions":18,"checkpoint_writes":19,` +
	`"resumed_units":20,"short_series_skips":21,"extract_errors":22,` +
	`"executed_queries":23,"augmented_queries":24,"cache_served":25,"cost_used":26.125,` +
	`"cancelled":true,` +
	`"query_cache":{"hits":3,"misses":1,"entries":27,"bytes":28,"hit_rate":0.75},` +
	`"pattern_cache":{"hits":1,"misses":3,"entries":29,"bytes":30,"hit_rate":0.25}}`

// legacyStatsWant is legacyStatsJSON decoded: every field that survived the
// removal keeps its value.
var legacyStatsWant = Stats{
	ExpandUnits: 1, DataPatternUnits: 2, MetaInsightUnits: 3, EmittedMIUnits: 4,
	PatternsFound: 5, Pruned1: 6, Pruned2: 7, SStarCut: 8, BoundSkips: 9,
	BoundScanSkips: 10, PrefetchFailures: 11, FailedUnits: 12, Retries: 13,
	BreakerTrips: 14, PanickedUnits: 17, Evictions: 18, CheckpointWrites: 19,
	ResumedUnits: 20, ShortSeriesSkips: 21, ExtractErrors: 22, ExecutedQueries: 23,
	AugmentedQueries: 24, CacheServed: 25, CostUsed: 26.125, Cancelled: true,
	QueryCacheStats:   cache.Stats{Hits: 3, Misses: 1, Entries: 27, Bytes: 28},
	PatternCacheStats: cache.Stats{Hits: 1, Misses: 3, Entries: 29, Bytes: 30},
}

// TestStatsLegacyWireCompat decodes a pre-removal Stats blob on its own (the
// shape of a result.json "stats" record) and inside a snapshot payload, and
// checks that re-encoding reproduces the blob byte for byte minus the two
// dropped keys — so jobs and checkpoints recover across the upgrade.
func TestStatsLegacyWireCompat(t *testing.T) {
	var got Stats
	if err := json.Unmarshal([]byte(legacyStatsJSON), &got); err != nil {
		t.Fatal(err)
	}
	if got != legacyStatsWant {
		t.Fatalf("decoded legacy stats:\n got  %+v\n want %+v", got, legacyStatsWant)
	}

	var snap snapshotJSON
	payload := `{"seq":42,"stats":` + legacyStatsJSON + `,"pending":[],"seen_mi":[],"results":[]}`
	if err := json.Unmarshal([]byte(payload), &snap); err != nil {
		t.Fatal(err)
	}
	if snap.Seq != 42 || snap.Stats != legacyStatsWant {
		t.Fatalf("snapshot stats:\n got  seq=%d %+v\n want seq=42 %+v", snap.Seq, snap.Stats, legacyStatsWant)
	}

	reenc, err := json.Marshal(got)
	if err != nil {
		t.Fatal(err)
	}
	want := []byte(legacyStatsJSON)
	want = bytes.Replace(want, []byte(`"speculative_reissues":15,`), nil, 1)
	want = bytes.Replace(want, []byte(`"shard_retries":16,`), nil, 1)
	if !bytes.Equal(reenc, want) {
		t.Fatalf("re-encoded stats:\n got  %s\n want %s", reenc, want)
	}
}
