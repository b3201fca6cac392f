// Package placement is the fleet layer above per-host ResEx: an
// interference-aware VM placement and live-migration scheduler for a
// cluster of hosts, each running its own ResEx/IBMon instance.
//
// Per-host ResEx can only *throttle* an interfering VM — the CPU cap is the
// hypervisor's single actuator over VMM-bypass I/O. The fleet layer adds
// the missing second actuator: deciding *where* VMs run, and *moving* them
// when throttling alone cannot restore an SLA. It has three parts:
//
//   - a filter → score → bind plugin pipeline (in the style of kube
//     scheduler plugins) that places arriving VMs using per-host capacity,
//     Reso headroom, and IBMon-profiled interference pressure;
//   - a live-migration actuator modeled in the discrete-event engine:
//     pre-copy of the VM state as MTU-segmented fabric traffic (migration
//     contends with workload I/O on the real links), a stop-and-copy round
//     for dirtied state, and a configurable downtime;
//   - a rebalancer loop that consumes each host's ResEx epoch summaries
//     and evacuates interferers or victims when a VM stays interfered even
//     though the host policy has throttled the culprit to its floor.
//
// The cluster-state model and the pipeline itself live in
// internal/schedshard — the shared-state multi-shard scheduler built for
// thousand-host fleets — and are aliased here, so fleet code and the
// scale-out scheduler operate on the same types. The fleet publishes its
// live state into a schedshard.Store and commits every bind through it,
// which is also where placement-vs-headroom conflicts are counted.
//
// Everything is deterministic: the same seed yields identical placement
// decisions and an identical migration schedule.
package placement

import (
	"fmt"

	"resex/internal/schedshard"
	"resex/internal/sim"
)

// The scheduling vocabulary is shared with the multi-shard scheduler:
// specs, VM and host views, health states, plugin interfaces and the
// pipeline all live in internal/schedshard and keep their original
// placement API here as aliases.
type (
	// Spec is what the scheduler knows about a VM before it runs.
	Spec = schedshard.Spec
	// VMInfo is the scheduler's view of one resident VM.
	VMInfo = schedshard.VMInfo
	// HostHealth classifies a host for scheduling purposes.
	HostHealth = schedshard.HostHealth
	// HostInfo is one host's state snapshot, the unit filters and scorers
	// operate on.
	HostInfo = schedshard.HostInfo
	// FilterPlugin rules hosts in or out for a spec.
	FilterPlugin = schedshard.FilterPlugin
	// ScorePlugin ranks a feasible host for a spec in [0, 1].
	ScorePlugin = schedshard.ScorePlugin
	// Pipeline is the filter → score → bind decision chain.
	Pipeline = schedshard.Pipeline
	// FitsPCPUs is the capacity filter.
	FitsPCPUs = schedshard.FitsPCPUs
	// HealthyHost filters out quarantined hosts.
	HealthyHost = schedshard.HealthyHost
	// SpreadByCPU scores hosts by free PCPU fraction.
	SpreadByCPU = schedshard.SpreadByCPU
	// ResoHeadroom scores hosts by remaining economic room.
	ResoHeadroom = schedshard.ResoHeadroom
	// InterferenceAware penalizes fatal colocations.
	InterferenceAware = schedshard.InterferenceAware
	// RateWeightedHeadroom discounts free capacity by congestion quotes.
	RateWeightedHeadroom = schedshard.RateWeightedHeadroom
)

// Health states (see schedshard.HostHealth).
const (
	HealthOK          = schedshard.HealthOK
	HealthDegraded    = schedshard.HealthDegraded
	HealthQuarantined = schedshard.HealthQuarantined
)

// NewPipeline creates an empty pipeline; compose it with AddFilter and
// AddScorer.
func NewPipeline() *Pipeline { return schedshard.NewPipeline() }

// NewSpreadPipeline is the CPU-only spreading scheduler: capacity and
// health filters plus SpreadByCPU.
func NewSpreadPipeline() *Pipeline { return schedshard.NewSpreadPipeline() }

// NewInterferencePipeline is the full scheduler: capacity and health
// filters, then interference avoidance dominating, with Reso headroom and
// CPU spreading as tie-breakers.
func NewInterferencePipeline() *Pipeline { return schedshard.NewInterferencePipeline() }

// NewRatePipeline is the exchange-priced scheduler: interference avoidance
// dominating, with rate-weighted headroom packing load onto cheap hosts.
func NewRatePipeline() *Pipeline { return schedshard.NewRatePipeline() }

// ---------------------------------------------------------------------------
// Strategies.
// ---------------------------------------------------------------------------

// Strategy decides where a VM goes. PipelineStrategy is the real scheduler;
// RandomStrategy is the experiment baseline.
type Strategy interface {
	Name() string
	Pick(hosts []*HostInfo, s Spec, rng *sim.Rand) (*HostInfo, error)
}

// PipelineStrategy runs a plugin pipeline.
type PipelineStrategy struct {
	Label string
	P     *Pipeline
}

// Name implements Strategy.
func (ps PipelineStrategy) Name() string { return ps.Label }

// Pick implements Strategy.
func (ps PipelineStrategy) Pick(hosts []*HostInfo, s Spec, _ *sim.Rand) (*HostInfo, error) {
	return ps.P.Select(hosts, s)
}

// RandomStrategy picks uniformly among hosts with a free PCPU — the
// baseline every real scheduler must beat.
type RandomStrategy struct{}

// Name implements Strategy.
func (RandomStrategy) Name() string { return "random" }

// Pick implements Strategy.
func (RandomStrategy) Pick(hosts []*HostInfo, s Spec, rng *sim.Rand) (*HostInfo, error) {
	var feasible []*HostInfo
	for _, h := range hosts {
		if (FitsPCPUs{}).Filter(h, s) && (HealthyHost{}).Filter(h, s) {
			feasible = append(feasible, h)
		}
	}
	if len(feasible) == 0 {
		return nil, fmt.Errorf("placement: no feasible host for %q", s.Name)
	}
	return feasible[rng.Intn(len(feasible))], nil
}
