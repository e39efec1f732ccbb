// Aggregations over a Trace: the computations behind cmd/pimtrie-trace
// (and directly usable by tests and future experiments).
package obs

import (
	"sort"

	"github.com/pimlab/pimtrie/internal/pim"
)

// PhaseStat aggregates every span sharing one path.
type PhaseStat struct {
	Path  string
	Spans int // how many span instances folded in
	M     pim.Metrics
}

// UnattributedPath labels the bucket of rounds recorded with no open
// span in phase aggregations.
const UnattributedPath = "(unattributed)"

// PhaseStats folds spans by path, appends the unattributed bucket when
// non-empty, and sorts by IO time (then rounds, then path) descending.
func (tr *Trace) PhaseStats() []PhaseStat {
	byPath := map[string]*PhaseStat{}
	order := []string{}
	for i := range tr.Spans {
		sp := &tr.Spans[i]
		st, ok := byPath[sp.Path]
		if !ok {
			st = &PhaseStat{Path: sp.Path, M: zeroMetrics(tr.P)}
			byPath[sp.Path] = st
			order = append(order, sp.Path)
		}
		st.Spans++
		st.M = st.M.Add(sp.M)
	}
	out := make([]PhaseStat, 0, len(order)+1)
	for _, p := range order {
		out = append(out, *byPath[p])
	}
	if tr.Unattributed.Rounds > 0 || tr.Unattributed.CPUWork > 0 {
		out = append(out, PhaseStat{Path: UnattributedPath, Spans: 0, M: copyMetrics(tr.Unattributed)})
	}
	sort.SliceStable(out, func(a, b int) bool {
		if out[a].M.IOTime != out[b].M.IOTime {
			return out[a].M.IOTime > out[b].M.IOTime
		}
		if out[a].M.Rounds != out[b].M.Rounds {
			return out[a].M.Rounds > out[b].M.Rounds
		}
		return out[a].Path < out[b].Path
	})
	return out
}

// ModuleLoad is one module's share of the trace's total IO and work.
type ModuleLoad struct {
	Module   int
	IO, Work int64
}

// HotModules returns the k modules with the highest total IO, hottest
// first (ties broken by work, then module ID).
func (tr *Trace) HotModules(k int) []ModuleLoad {
	loads := make([]ModuleLoad, len(tr.Total.PerModuleIO))
	for i := range loads {
		loads[i] = ModuleLoad{Module: i, IO: tr.Total.PerModuleIO[i]}
		if i < len(tr.Total.PerModuleWrk) {
			loads[i].Work = tr.Total.PerModuleWrk[i]
		}
	}
	sort.SliceStable(loads, func(a, b int) bool {
		if loads[a].IO != loads[b].IO {
			return loads[a].IO > loads[b].IO
		}
		if loads[a].Work != loads[b].Work {
			return loads[a].Work > loads[b].Work
		}
		return loads[a].Module < loads[b].Module
	})
	if k > 0 && k < len(loads) {
		loads = loads[:k]
	}
	return loads
}
