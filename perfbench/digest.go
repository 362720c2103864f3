package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"fmt"
	"io"

	"malnet/internal/core"
)

// pinnedJSON pins the dataset digest of the -short study at one seed,
// so a change that alters what the study computes fails the
// correctness check instead of passing as a speed-up.
//
//go:embed pinned.json
var pinnedJSON []byte

var pinned = mustPin(pinnedJSON)

type pin struct {
	Seed   int64  `json:"seed"`
	Digest string `json:"digest"`
}

func mustPin(b []byte) pin {
	var p pin
	if err := json.Unmarshal(b, &p); err != nil {
		panic("perfbench: pinned.json: " + err.Error())
	}
	return p
}

// datasetDigest hashes the study's four datasets and its deterministic
// metrics snapshot: two studies render the same digest exactly when
// they are byte-identical.
func datasetDigest(st *core.Study) (string, error) {
	h := sha256.New()
	ds := core.CheckpointDatasets{Samples: st.Samples, C2s: st.C2s, Exploits: st.Exploits, DDoS: st.DDoS}
	if err := json.NewEncoder(h).Encode(ds); err != nil {
		return "", fmt.Errorf("digest: %w", err)
	}
	io.WriteString(h, st.Metrics().Snapshot())
	return hex.EncodeToString(h.Sum(nil)), nil
}

// disagreements names the studies whose digest differs from the first:
// every study of one seed must render the same datasets.
func disagreements(digests []string) []string {
	var out []string
	for i, d := range digests {
		if d != digests[0] {
			out = append(out, fmt.Sprintf("study %d rendered digest %.16s, study 0 rendered %.16s", i, d, digests[0]))
		}
	}
	return out
}

// pinProblem describes a study of the pinned seed that does not render
// the pinned digest, and is empty otherwise.
func pinProblem(p pin, seed int64, digest string) string {
	if seed != p.Seed || digest == p.Digest {
		return ""
	}
	return fmt.Sprintf("seed %d rendered digest %s, pinned.json pins %s", seed, digest, p.Digest)
}
