package obs

import (
	"bytes"
	"math/rand"
	"reflect"
	"strings"
	"sync"
	"testing"

	"github.com/pimlab/pimtrie/internal/bitstr"
	"github.com/pimlab/pimtrie/internal/core"
	"github.com/pimlab/pimtrie/internal/pim"
)

// doRound executes one trivial round on the given module so tests can
// place known costs inside known spans.
func doRound(sys *pim.System, module int, work int) {
	sys.Round([]pim.Task{{
		Module:    module,
		SendWords: 2,
		Run: func(m *pim.Module) pim.Resp {
			m.Work(work)
			return pim.Resp{RecvWords: 1}
		},
	}})
}

func TestNestedSpanInnermostAttribution(t *testing.T) {
	sys := pim.NewSystem(4, pim.WithSeed(7))
	tr := Attach(sys, "nested")

	doRound(sys, 0, 1) // unattributed

	endOuter := sys.Phase("outer")
	doRound(sys, 1, 2) // outer
	endInner := sys.Phase("inner")
	doRound(sys, 2, 3) // outer/inner
	doRound(sys, 2, 3) // outer/inner
	endInner()
	doRound(sys, 1, 2) // outer again
	sys.CPUWork(5)     // outer
	endOuter()

	sys.CPUWork(9) // unattributed

	tr.Detach()
	d := tr.Data()
	if err := d.Check(); err != nil {
		t.Fatal(err)
	}

	if len(d.Spans) != 2 {
		t.Fatalf("got %d spans, want 2", len(d.Spans))
	}
	outer, inner := d.Spans[0], d.Spans[1]
	if outer.Path != "outer" || inner.Path != "outer/inner" {
		t.Fatalf("paths = %q, %q", outer.Path, inner.Path)
	}
	if inner.Parent != outer.ID {
		t.Fatalf("inner.Parent = %d, want %d", inner.Parent, outer.ID)
	}
	// Exclusive attribution: outer gets only the two rounds executed
	// while inner was closed; inner gets the two in the middle.
	if outer.M.Rounds != 2 || inner.M.Rounds != 2 {
		t.Fatalf("rounds: outer %d inner %d, want 2 and 2", outer.M.Rounds, inner.M.Rounds)
	}
	if outer.M.PIMWork != 4 || inner.M.PIMWork != 6 {
		t.Fatalf("work: outer %d inner %d, want 4 and 6", outer.M.PIMWork, inner.M.PIMWork)
	}
	if outer.M.CPUWork != 5 {
		t.Fatalf("outer CPUWork = %d, want 5", outer.M.CPUWork)
	}
	if d.Unattributed.Rounds != 1 || d.Unattributed.CPUWork != 9 {
		t.Fatalf("unattributed = %+v, want 1 round and 9 cpu work", d.Unattributed)
	}
	// Per-module vectors land on the right spans.
	if inner.M.PerModuleIO[2] == 0 || inner.M.PerModuleWrk[2] != 6 {
		t.Fatalf("inner per-module: io[2]=%d wrk[2]=%d", inner.M.PerModuleIO[2], inner.M.PerModuleWrk[2])
	}
	// Round log attribution strings.
	if d.Rounds[0].Span != -1 || d.Rounds[1].Path != "outer" || d.Rounds[2].Path != "outer/inner" {
		t.Fatalf("round attribution wrong: %+v", d.Rounds[:3])
	}
}

// TestSpanSumsMatchSystemTotals drives the real pipeline — build, LCP,
// insert, delete, subtree — and verifies the conservation law against
// the system's own metrics, plus the presence of the paper's match
// phases under lcp/.
func TestSpanSumsMatchSystemTotals(t *testing.T) {
	r := rand.New(rand.NewSource(42))
	sys := pim.NewSystem(16, pim.WithSeed(3))
	tr := Attach(sys, "pipeline")
	pt := core.New(sys, core.Config{})

	keys := make([]bitstr.String, 300)
	vals := make([]uint64, len(keys))
	for i := range keys {
		var b strings.Builder
		for j := 0; j < 8+r.Intn(40); j++ {
			b.WriteByte('0' + byte(r.Intn(2)))
		}
		keys[i] = bitstr.MustParse(b.String())
		vals[i] = uint64(i + 1)
	}
	pt.Build(keys, vals)
	pt.LCP(keys[:64])
	pt.Insert(keys[100:140], vals[100:140])
	pt.Delete(keys[:20])
	pt.SubtreeQueryBatch(keys[:4])

	tr.Detach()
	d := tr.Data()
	if err := d.Check(); err != nil {
		t.Fatal(err)
	}
	if !d.Detached {
		t.Fatal("trace not marked detached")
	}
	if d.Total.Rounds == 0 || d.Total.IOTime == 0 {
		t.Fatalf("trace recorded no cost: %+v", d.Total)
	}

	var paths []string // one entry per distinct span path
	for _, st := range d.PhaseStats() {
		paths = append(paths, st.Path)
	}
	want := []string{"init", "build", "lcp", "insert", "delete", "subtree"}
	for _, w := range want {
		found := false
		for _, p := range paths {
			if p == w || strings.HasPrefix(p, w+"/") {
				found = true
				break
			}
		}
		if !found {
			t.Errorf("no span under %q; paths = %v", w, paths)
		}
	}
	// The acceptance criterion: at least 3 distinct phase labels on the
	// LCP path (prepare, master-match, region-match, block-match...).
	lcpSub := 0
	for _, p := range paths {
		if strings.HasPrefix(p, "lcp/") {
			lcpSub++
		}
	}
	if lcpSub < 3 {
		t.Fatalf("only %d distinct lcp/ sub-phases, want >= 3; paths = %v", lcpSub, paths)
	}

	// PhaseStats must also conserve cost.
	var sum pim.Metrics
	for _, st := range d.PhaseStats() {
		sum = sum.Add(st.M)
	}
	if err := equalMetrics(sum, d.Total, "phase stats", "total"); err != nil {
		t.Fatal(err)
	}
}

func TestJSONLRoundTrip(t *testing.T) {
	sys := pim.NewSystem(4, pim.WithSeed(1))
	tr := Attach(sys, "rt")
	end := sys.Phase("alpha")
	doRound(sys, 0, 1)
	inner := sys.Phase("beta")
	doRound(sys, 3, 2)
	inner()
	end()
	doRound(sys, 1, 1)
	sys.CPUWork(4)
	tr.Detach()
	d := tr.Data()

	var buf bytes.Buffer
	if err := d.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	// Two sections in one stream must both come back.
	if err := d.WriteJSONL(&buf); err != nil {
		t.Fatal(err)
	}
	got, err := ReadJSONL(&buf)
	if err != nil {
		t.Fatal(err)
	}
	if len(got) != 2 {
		t.Fatalf("got %d traces, want 2", len(got))
	}
	for _, g := range got {
		if err := g.Check(); err != nil {
			t.Fatal(err)
		}
		if !reflect.DeepEqual(normalize(g), normalize(d)) {
			t.Fatalf("round trip mismatch:\n got %+v\nwant %+v", g, d)
		}
	}
}

// normalize maps empty slices to nil so DeepEqual compares JSON-decoded
// traces (which leave absent vectors nil) against in-memory ones.
func normalize(tr *Trace) *Trace {
	c := *tr
	c.Spans = append([]Span(nil), tr.Spans...)
	c.Rounds = append([]Round(nil), tr.Rounds...)
	for i := range c.Spans {
		c.Spans[i].M = nilEmpty(c.Spans[i].M)
	}
	for i := range c.Rounds {
		r := &c.Rounds[i]
		if len(r.ModID) == 0 {
			r.ModID, r.ModIO, r.ModWork = nil, nil, nil
		}
	}
	c.Total = nilEmpty(c.Total)
	c.Unattributed = nilEmpty(c.Unattributed)
	c.System = nilEmpty(c.System)
	return &c
}

func nilEmpty(m pim.Metrics) pim.Metrics {
	if len(m.PerModuleIO) == 0 {
		m.PerModuleIO = nil
	}
	if len(m.PerModuleWrk) == 0 {
		m.PerModuleWrk = nil
	}
	return m
}

// TestConcurrentSnapshots takes Data() and WriteJSONL snapshots while
// rounds are executing; run under -race this verifies the tracer's
// locking discipline.
func TestConcurrentSnapshots(t *testing.T) {
	sys := pim.NewSystem(8, pim.WithSeed(5))
	tr := Attach(sys, "conc")

	done := make(chan struct{})
	var wg sync.WaitGroup
	wg.Add(1)
	go func() {
		defer wg.Done()
		for {
			select {
			case <-done:
				return
			default:
			}
			d := tr.Data()
			var buf bytes.Buffer
			if err := d.WriteJSONL(&buf); err != nil {
				t.Error(err)
				return
			}
			d.PhaseStats()
			d.HotModules(3)
		}
	}()

	for i := 0; i < 200; i++ {
		end := sys.Phase("op")
		doRound(sys, i%8, 1)
		sys.CPUWork(1)
		end()
	}
	close(done)
	wg.Wait()

	tr.Detach()
	d := tr.Data()
	if err := d.Check(); err != nil {
		t.Fatal(err)
	}
	if d.Total.Rounds != 200 {
		t.Fatalf("Total.Rounds = %d, want 200", d.Total.Rounds)
	}
}

// TestHotModules checks ranking on a deliberately skewed load.
func TestHotModules(t *testing.T) {
	sys := pim.NewSystem(4, pim.WithSeed(2))
	tr := Attach(sys, "hot")
	for i := 0; i < 6; i++ {
		doRound(sys, 3, 2) // module 3 is hottest
	}
	doRound(sys, 1, 1)
	tr.Detach()
	d := tr.Data()
	hot := d.HotModules(2)
	if len(hot) != 2 || hot[0].Module != 3 || hot[1].Module != 1 {
		t.Fatalf("HotModules = %+v, want modules 3 then 1", hot)
	}
}
