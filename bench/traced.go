package main

import (
	"fmt"
	"io"
	"runtime"
	"time"

	"repro/internal/obs"
	"repro/internal/proxy"
	corpus "repro/internal/workload"
)

// passShare is the part of -seconds a traced run spends on passes; probes
// take the rest.
const passShare = 0.4

// runTraced is the per-layer run: passes alternate between tracing off and
// on (so the two halves see the same machine), the program's spans are
// harvested under bench-owned root spans, and then every layer is probed
// directly.
func runTraced(cfg config, ref *refKernel, w io.Writer) (result, error) {
	col := newCollector()
	wl, err := newWorkload(cfg, col)
	if err != nil {
		return result{}, err
	}
	if err := wl.setup(); err != nil {
		return result{}, fmt.Errorf("setup: %w", err)
	}
	lb, _ := wl.(*loopback)
	fl, _ := wl.(*fleet)
	cycle := wl.cycle()
	traced := func(i int) bool { return lb == nil || (i/cycle)%2 == 1 }

	tracker := startPeakTracker()
	recs, err := runPasses(wl, ref, cfg.seconds*passShare, 2, func(i int) {
		if lb != nil {
			lb.setTracing(traced(i))
		}
	})
	tracker.finish()
	if err != nil {
		return result{}, err
	}
	var on, off []passRec
	passK := make(map[int]float64)
	for i, r := range recs {
		if traced(i) {
			on = append(on, r)
			passK[i] = r.k()
		} else {
			off = append(off, r)
		}
	}
	all, err := summarise(recs, cycle, wl.virtualClock())
	if err != nil {
		return result{}, err
	}
	sumOn, err := summarise(on, cycle, wl.virtualClock())
	if err != nil {
		return result{}, err
	}

	out := make(map[string]float64)
	if fl != nil {
		fl.harvest(col)
		passK[0] = 1 // virtual time needs no normalising
	}
	oracleErr := col.spanMetrics(passK, out)
	out["proxy.fetch_tail_ms"], out["proxy.fetch_tail_pct"] = sumOn.tailMs, sumOn.tailPct
	if lb != nil {
		sumOff, err := summarise(off, cycle, false)
		if err != nil {
			return result{}, err
		}
		out["obs.trace_overhead_pct"] = 100 * (1 - sumOn.metrics["fetches_per_s"]/sumOff.metrics["fetches_per_s"])
		statsMetrics(lb.srv.Stats(), lb.base, all.ops, out)
	}
	if fl != nil {
		// The harness builds a fresh server per pass; its snapshot is the
		// last pass's whole life.
		statsMetrics(fl.last.Stats, proxy.Stats{}, len(fl.last.Records), out)
	}
	out["runtime.gc_cycles_per_kfetch"] = 1000 * float64(all.gcs) / float64(all.ops)
	out["runtime.gc_pause_ms"] = all.pauseMs
	out["runtime.heap_peak_mb"] = tracker.heapMB
	out["runtime.goroutines_peak"] = float64(tracker.goroutines)
	out["host.speed_factor_p50"] = all.kMedian
	out["host.speed_factor_min"] = all.kMin
	out["host.raw_fetches_per_s"] = all.rawFetchesPerS
	out["host.stolen_cpu_pct"] = all.stolenPct

	p, err := newProber(ref, cfg.scale, out)
	if err != nil {
		return result{}, err
	}
	var files [][]byte
	if lb != nil {
		files = lb.contents
		if err := probeServer(p, lb); err != nil {
			return result{}, err
		}
	} else {
		files = fl.corpus()
	}
	if err := runProbes(p, files, cfg.seed); err != nil {
		return result{}, err
	}
	if err := wl.close(); err != nil {
		return result{}, err
	}
	if oracleErr == nil {
		oracleErr = wl.check(all.ops)
	}
	path, err := col.write(cfg.outDir, cfg.workload, cfg.seed)
	if err != nil {
		return result{}, err
	}

	fmt.Fprintf(w, "workload %s seed %d traced: %d passes (%d traced), ops %d, failed %d, spans in %s\n",
		cfg.workload, cfg.seed, len(recs), len(on), all.ops, all.failed, path)
	res, err := report(w, perLayer, out, all, oracleErr)
	fmt.Fprintf(w, "%-36s %14s (canonical trace of the %d-client testbed probe at this seed)\n", "harness.trace_sha", p.traceSHA, probeClients)
	return res, err
}

// setTracing switches the client tracers and span retention for the next
// pass. The server always has a tracer (its default when none is
// configured), so its side of "off" is an unretained span, exactly what an
// untraced server pays.
func (l *loopback) setTracing(on bool) {
	l.trace.enable(on)
	for _, lc := range l.clients {
		lc.cli.Tracer = nil
		if on {
			lc.cli.Tracer = lc.tracer
		}
	}
}

// statsMetrics reads the useful-work ratios off a Server.Stats() delta.
func statsMetrics(st, base proxy.Stats, ops int, out map[string]float64) {
	hits, misses := st.CacheHits-base.CacheHits, st.CacheMisses-base.CacheMisses
	if hits+misses > 0 {
		out["proxy.cache_hit_ratio"] = float64(hits) / float64(hits+misses)
	}
	out["proxy.compressions_per_fetch"] = float64(st.Compressions-base.Compressions) / float64(ops)
	out["proxy.coalesced_per_fetch"] = float64(st.Coalesced-base.Coalesced) / float64(ops)
	out["proxy.evictions"] = float64(st.Evictions - base.Evictions)
	out["proxy.conns_rejected"] = float64(st.ConnsRejected)
	out["proxy.errors"] = float64(st.Errors)
}

// harvest turns the last pass's report into root spans with the client
// spans as children. Tracer.Start stamps host time while the phases carry
// virtual timestamps, so the phases are re-laid on the virtual timeline
// the FetchRecord gives: radio phases and backoff end to end from the
// fetch's virtual start, CPU phases (which cost the ledger no virtual
// time) inside recv.
func (f *fleet) harvest(col *collector) {
	col.enable(true)
	epoch := time.Unix(0, 0)
	for _, rec := range f.last.Records {
		sd, ok := fetchSpan(f.last, rec)
		if !ok {
			continue
		}
		start := epoch.Add(rec.VStart)
		laid := obs.SpanData{ID: sd.ID, Name: sd.Name, Attrs: sd.Attrs, Start: start, End: start.Add(rec.Virtual)}
		var at, recvAt time.Duration
		for _, p := range sd.Phases {
			switch p.Class {
			case obs.ClassCPU:
				p.Start = recvAt
			default:
				if p.Name == "recv" {
					recvAt = at
				}
				p.Start = at
				at += p.Duration
			}
			laid.Phases = append(laid.Phases, p)
		}
		st := rec.Stats
		col.fetch(0, 0, start, laid.End, laid, modelJoules(f.params, st.RawBytes, st.WireBytes, st.BlocksCompressed), 0, connMeter{}, connMeter{})
	}
}

// corpus generates files of the scenario's classes, ratios and sizes for
// the probes to chew on (the harness keeps its own copies to itself).
func (f *fleet) corpus() [][]byte {
	var files [][]byte
	for i, fs := range f.spec.Files {
		seed := splitmix(uint64(f.seed), uint64(i))
		if fs.Ratio > 0 {
			files = append(files, corpus.GenerateRatio(fs.Size, fs.Ratio, seed, gzipFactor))
		} else {
			files = append(files, corpus.Generate(fs.Class, fs.Size, seed))
		}
	}
	return files
}

// peakTracker samples goroutine count and heap size while a traced run's
// passes execute.
type peakTracker struct {
	stop       chan struct{}
	done       chan struct{}
	goroutines int
	heapMB     float64
}

func startPeakTracker() *peakTracker {
	p := &peakTracker{stop: make(chan struct{}), done: make(chan struct{})}
	go func() {
		defer close(p.done)
		tick := time.NewTicker(25 * time.Millisecond)
		defer tick.Stop()
		var ms runtime.MemStats
		for n := 0; ; n++ {
			select {
			case <-p.stop:
				return
			case <-tick.C:
			}
			p.goroutines = max(p.goroutines, runtime.NumGoroutine())
			if n%8 == 0 { // ReadMemStats stops the world; keep it rare
				runtime.ReadMemStats(&ms)
				p.heapMB = max(p.heapMB, float64(ms.HeapInuse)/(1<<20))
			}
		}
	}()
	return p
}

func (p *peakTracker) finish() {
	close(p.stop)
	<-p.done
}
