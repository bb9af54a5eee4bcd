package main

import (
	"crypto/sha256"
	_ "embed"
	"encoding/hex"
	"encoding/json"
	"errors"
	"fmt"

	"laperm/internal/gpu"
)

// referenceJSON holds the expected outcome of every op the benchmark can
// draw. `laperm-perfbench -reference FILE` regenerates it.
//
//go:embed testdata/reference.json
var referenceJSON []byte

// reference maps each drawable op to its expected outcome string (see
// outcome). Keys are cell keys ("dtbl/amr/rr") for the simulation tables and
// "<experiment id>/<workload>" for the experiment table.
type reference struct {
	// Small holds the small-scale DTBL and CDP cells of sim-dtbl and sim-cdp.
	Small map[string]string `json:"small"`
	// Tiny holds every tiny-scale cell; service-mix draws from it.
	Tiny map[string]string `json:"tiny"`
	// Experiments holds the report digest of every experiment id run on one
	// workload at tiny scale.
	Experiments map[string]string `json:"experiments"`
}

func loadReference() (*reference, error) {
	var ref reference
	if err := json.Unmarshal(referenceJSON, &ref); err != nil {
		return nil, fmt.Errorf("perfbench: decode reference: %w", err)
	}
	return &ref, nil
}

// check compares an op's outcome with its reference entry.
func check(table map[string]string, key, got string) error {
	want, ok := table[key]
	if !ok {
		return fmt.Errorf("%s: no reference entry", key)
	}
	if got != want {
		return fmt.Errorf("%s: outcome %s, reference %s", key, got, want)
	}
	return nil
}

// resultDigest is the SHA-256 of a Result's compact JSON with the two
// host-timing fields zeroed: the same bytes whether the Result came from an
// in-process run or was decoded from the service's result.json.
func resultDigest(res *gpu.Result) string {
	r := *res
	r.WallTime, r.SimCyclesPerSec = 0, 0
	b, err := json.Marshal(&r)
	if err != nil {
		// A Result holds only numbers, strings and slices of them.
		panic(err)
	}
	return textDigest(b)
}

func textDigest(b []byte) string {
	sum := sha256.Sum256(b)
	return "sha256:" + hex.EncodeToString(sum[:])
}

// outcome names what one simulation run produced: the Result digest, or the
// watchdog's deadlock verdict with the cycle it fired at. Deadlocks are
// deterministic, so a verdict is an outcome to match, not a failure.
func outcome(res *gpu.Result, err error) (string, error) {
	var dl *gpu.DeadlockError
	switch {
	case errors.As(err, &dl):
		return fmt.Sprintf("deadlock@%d", dl.Cycle), nil
	case err != nil:
		return "", err
	}
	return resultDigest(res), nil
}

// decodeResult parses a service result.json artifact.
func decodeResult(raw []byte) (*gpu.Result, error) {
	var res gpu.Result
	if err := json.Unmarshal(raw, &res); err != nil {
		return nil, fmt.Errorf("decode result.json: %w", err)
	}
	return &res, nil
}
