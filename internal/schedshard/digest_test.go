package schedshard

import (
	"fmt"
	"math/rand"
	"testing"
)

// digestSpecs are the three arriving-VM classes InterferenceAware
// distinguishes: latency-sensitive (charged for bulk residents), bulk
// (charged for latency-sensitive residents) and neutral (never charged).
var digestSpecs = []Spec{
	{Name: "probe-ls", LatencySensitive: true, BufferSize: 64 << 10},
	{Name: "probe-bulk", BufferSize: 2 << 20},
	{Name: "probe-neutral", BufferSize: 64 << 10},
}

// randomResident draws a resident VM around the bulk threshold: declared
// and inferred buffers on both sides of it (an inferred buffer can promote
// a latency-sensitive VM to a bulk sender), rates whose float sums are not
// associative.
func randomResident(rng *rand.Rand, name string) VMInfo {
	buffers := []int{16 << 10, 64 << 10, LargeBuffer - 1, LargeBuffer, 1 << 20, 4 << 20}
	spec := Spec{Name: name, LatencySensitive: rng.Intn(2) == 0,
		BufferSize: buffers[rng.Intn(len(buffers))]}
	vm := VMInfo{Spec: spec, BytesPerSec: rng.Float64() * 0.3e9, BufferSize: spec.BufferSize}
	if rng.Intn(4) == 0 {
		vm.BufferSize = buffers[rng.Intn(len(buffers))]
	}
	return vm
}

// randomDigestFleet builds a fleet with 0–12 residents per host; some hosts
// have no link capacity, where the scan skips the bytes/link term.
func randomDigestFleet(rng *rand.Rand, n int) []*HostInfo {
	hosts := testHosts(n, 16)
	for i, h := range hosts {
		if rng.Intn(8) == 0 {
			h.LinkBytesPerSec = 0
		}
		for j := rng.Intn(13); j > 0; j-- {
			h.VMs = append(h.VMs, randomResident(rng, fmt.Sprintf("r%d-%d", i, j)))
			h.FreePCPUs--
		}
	}
	return hosts
}

// wantScore is the reference: the per-resident scan.
func wantScore(h *HostInfo, s Spec) float64 {
	return 1 / (1 + interferenceScan(h, s))
}

// checkDigestHost asserts a Store-maintained host carries a sealed digest
// and that the digest-backed score equals the scan bit for bit, for every
// spec class.
func checkDigestHost(t *testing.T, when string, h *HostInfo) {
	t.Helper()
	if !h.digestSealed() {
		t.Fatalf("%s: node %d digest not sealed to its %d VMs", when, h.Node, len(h.VMs))
	}
	for _, s := range digestSpecs {
		want := wantScore(h, s)
		if got := (InterferenceAware{}).Score(h, s); got != want {
			t.Fatalf("%s: node %d %s: digest score %v != scan %v", when, h.Node, s.Name, got, want)
		}
	}
}

// TestDigestMatchesScan is the digest's bit-exactness property on generated
// fleets: after Publish, after CommitRound (with a gang rolled back and a
// gang committed), and on WithoutVM views, every host's digest-backed
// InterferenceAware score equals the per-resident scan exactly.
func TestDigestMatchesScan(t *testing.T) {
	for seed := int64(1); seed <= 40; seed++ {
		rng := rand.New(rand.NewSource(seed))
		st := NewStore()
		st.Publish(randomDigestFleet(rng, 12))
		for _, h := range st.Snapshot().Hosts {
			checkDigestHost(t, fmt.Sprintf("seed %d after Publish", seed), h)
		}

		// Singletons anywhere, one gang that fits, and one gang whose last
		// member targets a full host so its earlier claims roll back.
		full := testHosts(1, 0)[0]
		full.Node = 13
		hosts := append(append([]*HostInfo(nil), st.Snapshot().Hosts...), full)
		st.Publish(hosts)
		var binds []Bind
		key := uint64(0)
		for i := 0; i < 10; i++ {
			key++
			binds = append(binds, Bind{Key: key, Node: 1 + rng.Intn(12),
				VM: randomResident(rng, fmt.Sprintf("s%d", key))})
		}
		for _, gang := range []struct {
			size int
			fail bool
		}{{4, false}, {5, true}} {
			first := key + 1
			for m := 0; m < gang.size; m++ {
				key++
				node := 1 + rng.Intn(12)
				if gang.fail && m == gang.size-1 {
					node = full.Node
				}
				binds = append(binds, Bind{Key: key, Node: node, Gang: first, GangSize: gang.size,
					VM: randomResident(rng, fmt.Sprintf("g%d", key))})
			}
		}
		committed, conflicted := st.CommitRound(binds)
		if len(conflicted) < 5 || len(committed) == 0 {
			t.Fatalf("seed %d: committed %d conflicted %d, want the failing gang (5) rolled back",
				seed, len(committed), len(conflicted))
		}
		snap := st.Snapshot()
		for _, h := range snap.Hosts {
			checkDigestHost(t, fmt.Sprintf("seed %d after CommitRound", seed), h)
		}

		for _, h := range snap.Hosts {
			if len(h.VMs) == 0 {
				continue
			}
			name := h.VMs[rng.Intn(len(h.VMs))].Spec.Name
			for _, v := range snap.WithoutVM(h.Node, name) {
				checkDigestHost(t, fmt.Sprintf("seed %d WithoutVM(%d, %s)", seed, h.Node, name), v)
			}
		}
	}
}

// TestDigestStaleSealFallsBack: a caller-copied host whose residents moved
// to a fresh backing array (the seal contract for editing VMs), was
// truncated in place, or changed link capacity must not read the digest it
// copied — it falls back to the scan over what it now holds.
func TestDigestStaleSealFallsBack(t *testing.T) {
	st := NewStore()
	hosts := testHosts(1, 8)
	bulkSpec := Spec{Name: "bulk0", BufferSize: 2 << 20}
	hosts[0].VMs = []VMInfo{{Spec: bulkSpec, BytesPerSec: 60e6, BufferSize: 2 << 20}, lsVM("ls0", 2e6)}
	st.Publish(hosts)
	h := st.Snapshot().Host(1)
	checkDigestHost(t, "published", h)

	fresh := *h
	fresh.VMs = append([]VMInfo(nil), h.VMs...)
	fresh.VMs[0] = lsVM("ls1", 1e6) // the bulk resident departs, another LS arrives
	truncated := *h
	truncated.VMs = h.VMs[:1]
	relinked := *h
	relinked.LinkBytesPerSec = 0.5e9
	for name, c := range map[string]*HostInfo{"fresh": &fresh, "truncated": &truncated, "relinked": &relinked} {
		if c.digestSealed() {
			t.Fatalf("%s copy still reads as sealed", name)
		}
		for _, s := range digestSpecs {
			if got, want := (InterferenceAware{}).Score(c, s), wantScore(c, s); got != want {
				t.Errorf("%s copy %s: score %v, want scan %v (stale digest read)", name, s.Name, got, want)
			}
		}
	}
	if got := (InterferenceAware{}).Score(&fresh, digestSpecs[0]); got != 1 {
		t.Errorf("fresh copy has no bulk resident left, LS score %v, want 1", got)
	}
	// Republishing the edited copy reseals it.
	st.Publish([]*HostInfo{&fresh})
	checkDigestHost(t, "republished", st.Snapshot().Host(1))
}
