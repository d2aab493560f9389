package main

// The correctness oracle. Every analysis the benchmark times is checked
// against a digest computed at set-up by a fresh single-worker session:
// mining results are invariant in the worker count, so any difference is a
// defect, not noise.

import (
	"bytes"
	"context"
	"crypto/sha256"
	"encoding/json"
	"fmt"

	"metainsight"
)

type digest [sha256.Size]byte

// digestOf hashes the JSON of the ranked insights and of the run Stats.
func digestOf(insights, stats []byte) digest {
	h := sha256.New()
	h.Write(insights)
	h.Write([]byte{0})
	h.Write(stats)
	var d digest
	copy(d[:], h.Sum(nil))
	return d
}

// analysisDigest is the digest of an in-process analysis.
func analysisDigest(an *metainsight.Analysis) (digest, error) {
	ins, err := json.Marshal(an.Insights)
	if err != nil {
		return digest{}, fmt.Errorf("encoding insights: %w", err)
	}
	st, err := json.Marshal(an.Result.Stats)
	if err != nil {
		return digest{}, fmt.Errorf("encoding stats: %w", err)
	}
	return digestOf(ins, st), nil
}

// responseDigest is the digest of the insights and stats a daemon returned.
// The response carries them exactly as the library encoded them, compacted.
func responseDigest(insights, stats json.RawMessage) digest {
	var ci, cs bytes.Buffer
	if json.Compact(&ci, insights) != nil || json.Compact(&cs, stats) != nil {
		return digest{}
	}
	return digestOf(ci.Bytes(), cs.Bytes())
}

// jobDigest is the digest of a durable job's result, ignoring the Stats
// fields a durable run legitimately differs in: checkpoint_writes,
// resumed_units and cancelled.
func jobDigest(insights, stats json.RawMessage) digest {
	var st metainsight.MiningStats
	if err := json.Unmarshal(stats, &st); err != nil {
		return digest{}
	}
	st.CheckpointWrites, st.ResumedUnits, st.Cancelled = 0, 0, false
	norm, err := json.Marshal(st)
	if err != nil {
		return digest{}
	}
	return responseDigest(insights, norm)
}

// oracleDigest runs req on tab in a fresh single-worker session.
func oracleDigest(tab *metainsight.Dataset, req metainsight.Request) (digest, error) {
	sess, err := metainsight.NewSession(tab, metainsight.WithWorkers(1))
	if err != nil {
		return digest{}, err
	}
	defer sess.Close()
	an, err := sess.Analyze(context.Background(), req)
	if err != nil {
		return digest{}, fmt.Errorf("oracle analysis of %s: %w", tab.Name(), err)
	}
	return analysisDigest(an)
}
