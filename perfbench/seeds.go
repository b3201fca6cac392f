package main

// defaultSeed is the seed runs and claims are quoted on; heldOutSeed is
// never used while tuning a change, so a claim can be re-checked on inputs
// its author did not see.
const (
	defaultSeed = 1
	heldOutSeed = 90210
)

// recordedFingerprints holds each workload's outcome fingerprint at its
// checked point, recorded for the default and the held-out seed on the
// commit that introduced the benchmark. A run on one of these seeds fails
// its correctness check when its fingerprint differs.
var recordedFingerprints = map[string]map[int64]string{
	"tenant-rpc":  {defaultSeed: "e4f096a2b874eaa6", heldOutSeed: "f72d1a8b12850fc1"},
	"fleet-admit": {defaultSeed: "2f763475da6b7dc1", heldOutSeed: "6e5de0c27420a148"},
	"geo-ring":    {defaultSeed: "5cd0f53619ed28b1", heldOutSeed: "c14b43f3e1f4e1e4"},
}
