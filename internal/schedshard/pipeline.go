package schedshard

import (
	"fmt"

	"resex/internal/exchange"
)

// FilterPlugin rules hosts in or out for a spec.
type FilterPlugin interface {
	Name() string
	Filter(h *HostInfo, s Spec) bool
}

// ScorePlugin ranks a feasible host for a spec in [0, 1] (higher = better).
type ScorePlugin interface {
	Name() string
	Score(h *HostInfo, s Spec) float64
}

// weightedScorer pairs a scorer with its weight in the pipeline sum.
type weightedScorer struct {
	plugin ScorePlugin
	weight float64
}

// Pipeline is the filter → score → bind decision chain. Select and Pick
// allocate nothing and never write to the pipeline itself.
type Pipeline struct {
	filters []FilterPlugin
	scorers []weightedScorer
}

// NewPipeline creates an empty pipeline; compose it with AddFilter and
// AddScorer.
func NewPipeline() *Pipeline { return &Pipeline{} }

// AddFilter appends a filter plugin.
func (p *Pipeline) AddFilter(f FilterPlugin) *Pipeline {
	p.filters = append(p.filters, f)
	return p
}

// AddScorer appends a score plugin with the given weight.
func (p *Pipeline) AddScorer(s ScorePlugin, weight float64) *Pipeline {
	p.scorers = append(p.scorers, weightedScorer{s, weight})
	return p
}

// Select runs the pipeline over the host snapshots: hosts failing any
// filter are out; the rest are scored by the weighted sum of all scorers;
// the best score wins, ties broken by lowest node id (deterministic).
func (p *Pipeline) Select(hosts []*HostInfo, s Spec) (*HostInfo, error) {
	var best *HostInfo
	bestScore := 0.0
	for _, h := range hosts {
		if !p.feasible(h, s) {
			continue
		}
		score := p.score(h, s)
		if best == nil || score > bestScore ||
			(score == bestScore && h.Node < best.Node) {
			best, bestScore = h, score
		}
	}
	if best == nil {
		return nil, fmt.Errorf("placement: no feasible host for %q", s.Name)
	}
	return best, nil
}

// feasible reports whether h passes every filter.
func (p *Pipeline) feasible(h *HostInfo, s Spec) bool {
	for _, f := range p.filters {
		if !f.Filter(h, s) {
			return false
		}
	}
	return true
}

// score is the weighted sum of every scorer's rating of h.
func (p *Pipeline) score(h *HostInfo, s Spec) (score float64) {
	for _, ws := range p.scorers {
		score += ws.weight * ws.plugin.Score(h, s)
	}
	return score
}

// Pick is the shard-side hot path: same filter → score decision as Select,
// but it returns the winner's index into hosts and breaks score ties by
// *rotated* index order — candidate i ranks as (i-off) mod len(hosts),
// lowest rank wins. With off = 0 over a Node-sorted host list this is
// exactly Select's lowest-node tie-break; a per-shard offset makes
// equal-scoring shards start their tie-break at different points of the
// host ring, which is the smart-conflict-avoidance trick: identical
// pipelines stop all herding onto the same host when scores tie. Allocates
// nothing. Returns -1 when no host is feasible.
func (p *Pipeline) Pick(hosts []*HostInfo, s Spec, off int) int {
	n := len(hosts)
	best := -1
	bestScore := 0.0
	bestRank := 0
	for i, h := range hosts {
		if !p.feasible(h, s) {
			continue
		}
		score := p.score(h, s)
		rank := i - off
		if rank < 0 {
			rank += n
		}
		if best < 0 || score > bestScore || (score == bestScore && rank < bestRank) {
			best, bestScore, bestRank = i, score, rank
		}
	}
	return best
}

// ---------------------------------------------------------------------------
// Built-in plugins.
// ---------------------------------------------------------------------------

// FitsPCPUs is the capacity filter: a guest needs a dedicated PCPU.
type FitsPCPUs struct{}

// Name implements FilterPlugin.
func (FitsPCPUs) Name() string { return "fits-pcpus" }

// Filter implements FilterPlugin.
func (FitsPCPUs) Filter(h *HostInfo, _ Spec) bool { return h.FreePCPUs > 0 }

// HealthyHost filters out quarantined hosts: binding a VM to a host that
// cannot be observed means ResEx would manage it blind from the first
// interval. Degraded hosts stay schedulable (their stale profiles just score
// worse).
type HealthyHost struct{}

// Name implements FilterPlugin.
func (HealthyHost) Name() string { return "healthy-host" }

// Filter implements FilterPlugin.
func (HealthyHost) Filter(h *HostInfo, _ Spec) bool { return h.Health != HealthQuarantined }

// MemBWFit filters hosts whose memory bandwidth is fully committed, for
// specs that declare a memory-bandwidth demand. Hosts that do not account
// for memory bandwidth (MemBWBytesPerSec == 0) and specs without a demand
// always pass, so the filter is a strict no-op on fleets that do not model
// the dimension. The threshold matches Store.CommitRound's claim check —
// the last reservation may overshoot capacity, but a saturated host admits
// no further membw demand.
type MemBWFit struct{}

// Name implements FilterPlugin.
func (MemBWFit) Name() string { return "membw-fit" }

// Filter implements FilterPlugin.
func (MemBWFit) Filter(h *HostInfo, s Spec) bool {
	if h.MemBWBytesPerSec <= 0 || s.MemBytesPerSec <= 0 {
		return true
	}
	return h.MemBWCommitted < 1
}

// SpreadByCPU scores hosts by free PCPU fraction: the classic
// least-allocated spreading any CPU-only scheduler does.
type SpreadByCPU struct{}

// Name implements ScorePlugin.
func (SpreadByCPU) Name() string { return "spread-by-cpu" }

// Score implements ScorePlugin.
func (SpreadByCPU) Score(h *HostInfo, _ Spec) float64 {
	if h.TotalPCPUs == 0 {
		return 0
	}
	return float64(h.FreePCPUs) / float64(h.TotalPCPUs)
}

// ResoHeadroom scores hosts by how much economic room is left: half
// from the uncommitted uplink fraction (profiled send rates vs capacity),
// half from the mean remaining Reso balance of resident VMs. A host whose
// VMs are burning their allocations flat is a bad landing spot even if
// PCPUs are free.
type ResoHeadroom struct{}

// Name implements ScorePlugin.
func (ResoHeadroom) Name() string { return "reso-headroom" }

// Score implements ScorePlugin.
func (ResoHeadroom) Score(h *HostInfo, _ Spec) float64 {
	free := 1 - h.IOCommitted
	if free < 0 {
		free = 0
	}
	// Accounts can run above their allocation (idle VMs earn); clamp so a
	// freshly placed, still-ramping VM can't make its host look better
	// than an empty one.
	hr := h.ResoHeadroom
	if hr > 1 {
		hr = 1
	}
	return 0.5*free + 0.5*hr
}

// InterferenceAware penalizes the colocations the paper shows are fatal:
// a latency-sensitive VM next to a large-buffer bursty sender. Resident
// pressure is IBMon-profiled (MTUs/s at a large inferred buffer size);
// arriving large-buffer VMs are recognized by their spec. Scores decay
// smoothly with pressure so two interferers on one host is judged worse
// than one, but any interferer-free host beats every contaminated one.
//
// Every risky colocation costs a static penalty of 1 regardless of current
// traffic (a quiet bulk VM can burst any time); bulk senders also cost
// their profiled share of the uplink.
//
// The score is O(1) per host: it reads the host's interference digest,
// which the Store keeps sealed to the resident list and which is
// bit-identical to the scan. Hosts whose digest is not sealed (views built
// outside the Store) fall back to scanning the residents.
type InterferenceAware struct{}

// Name implements ScorePlugin.
func (InterferenceAware) Name() string { return "interference-aware" }

// Score implements ScorePlugin.
func (InterferenceAware) Score(h *HostInfo, s Spec) float64 {
	if !h.digestSealed() {
		return 1 / (1 + interferenceScan(h, s))
	}
	penalty := 0.0
	if s.LatencySensitive {
		penalty = h.intf.bulkPenalty
	} else if s.BufferSize >= LargeBuffer {
		// The scan adds 1 once per latency-sensitive resident, an exact
		// integer sum.
		penalty = float64(h.intf.lsResidents)
	}
	return 1 / (1 + penalty)
}

// interferenceScan is InterferenceAware's per-resident penalty scan.
func interferenceScan(h *HostInfo, s Spec) float64 {
	penalty := 0.0
	if s.LatencySensitive {
		// Placing a latency-sensitive VM: every resident bulk sender hurts,
		// proportionally to its profiled wire pressure (MTUs/s × buffer,
		// i.e. bytes/s) relative to the uplink.
		for i := range h.VMs {
			vm := &h.VMs[i]
			if vm.EffectiveBuffer() >= LargeBuffer {
				penalty++
				if h.LinkBytesPerSec > 0 {
					penalty += vm.BytesPerSec / h.LinkBytesPerSec
				}
			}
		}
	} else if s.BufferSize >= LargeBuffer {
		// Placing a bulk VM: penalize hosts running latency-sensitive VMs.
		for i := range h.VMs {
			if h.VMs[i].Spec.LatencySensitive {
				penalty++
			}
		}
	}
	return penalty
}

// RateWeightedHeadroom is the exchange-priced headroom scorer: free
// capacity in each dimension is discounted by the host's congestion quote
// for that dimension, turning placement into rate-weighted vector
// bin-packing. A host with plenty of free PCPUs but an expensive fabric
// (its rate board prices the link as congested) scores like a nearly-full
// host; a host quoting base prices everywhere scores its raw headroom.
// On fleets whose policy does not price (no rate boards feeding Prices),
// every quote floors at 1 and the scorer degrades to plain headroom.
type RateWeightedHeadroom struct{}

// Name implements ScorePlugin.
func (RateWeightedHeadroom) Name() string { return "rate-weighted-headroom" }

// Score implements ScorePlugin.
func (RateWeightedHeadroom) Score(h *HostInfo, _ Spec) float64 {
	cpu := 0.0
	if h.TotalPCPUs > 0 {
		cpu = float64(h.FreePCPUs) / float64(h.TotalPCPUs)
	}
	link := 1 - h.IOCommitted
	if link < 0 {
		link = 0
	}
	// Each term is a [0,1] free-fraction divided by a price >= 1, so the
	// weighted sum stays in [0,1] and congested dimensions shrink toward 0.
	return 0.5*cpu/h.PriceOf(exchange.DimCPU) + 0.5*link/h.PriceOf(exchange.DimFabric)
}

// NewSpreadPipeline is the CPU-only spreading scheduler: capacity and
// health filters plus SpreadByCPU.
func NewSpreadPipeline() *Pipeline {
	return NewPipeline().
		AddFilter(FitsPCPUs{}).
		AddFilter(HealthyHost{}).
		AddFilter(MemBWFit{}).
		AddScorer(SpreadByCPU{}, 1)
}

// NewInterferencePipeline is the full scheduler: capacity and health
// filters, then interference avoidance dominating, with Reso headroom and
// CPU spreading as tie-breakers.
func NewInterferencePipeline() *Pipeline {
	return NewPipeline().
		AddFilter(FitsPCPUs{}).
		AddFilter(HealthyHost{}).
		AddFilter(MemBWFit{}).
		AddScorer(InterferenceAware{}, 1).
		AddScorer(ResoHeadroom{}, 0.3).
		AddScorer(SpreadByCPU{}, 0.5)
}

// NewRatePipeline is the exchange-priced scheduler: interference avoidance
// still dominates (a cheap host running a fatal neighbor is still fatal),
// but the headroom tie-break is rate-weighted, so among interference-safe
// hosts the fleet packs load where congestion prices are lowest.
func NewRatePipeline() *Pipeline {
	return NewPipeline().
		AddFilter(FitsPCPUs{}).
		AddFilter(HealthyHost{}).
		AddFilter(MemBWFit{}).
		AddScorer(InterferenceAware{}, 1).
		AddScorer(RateWeightedHeadroom{}, 0.6).
		AddScorer(SpreadByCPU{}, 0.2)
}
