package main

import (
	"context"
	"encoding/json"
	"fmt"

	"gpuperf"
	"gpuperf/internal/advise"
	"gpuperf/internal/barra"
	"gpuperf/internal/device"
	"gpuperf/internal/model"
	"gpuperf/internal/timing"
)

// pipeline calls the layers a request crosses, in the Analyzer's
// order, each inside its own span: the registry build, barra.RunContext,
// model.Analyze or advise.Run, the workload's Verify, and for Measure a
// rebuild then device.RunContext. Its Results and Advice are built
// field for field as the facade builds them, so their digests equal
// the facade's (TestPipelineMatchesFacade).
type pipeline struct {
	dev gpuperf.Device
	reg *gpuperf.Registry
	tr  *tracer
}

// workers is the functional-simulation worker count every workload
// pins (FleetOptions.Parallelism), so engine counters, and with them
// the output digests, do not depend on the host's core count.
const workers = 1

// normalize resolves the request's defaults as the facade does.
func (p *pipeline) normalize(req gpuperf.Request) (gpuperf.Request, error) {
	spec, ok := p.reg.Lookup(req.Kernel)
	if !ok {
		return req, fmt.Errorf("unknown kernel %q", req.Kernel)
	}
	if req.Size == 0 {
		req.Size = spec.DefaultSize
	}
	if req.Seed == 0 {
		req.Seed = 1
	}
	if spec.Unverified {
		req.SkipVerify = true
	}
	req.Device = p.dev.Name
	return req, nil
}

func (p *pipeline) build(sp span, req gpuperf.Request) (*gpuperf.Workload, error) {
	var w *gpuperf.Workload
	err := p.tr.do(sp, "registry", func() (err error) {
		w, err = p.reg.Build(p.dev, req.Kernel, gpuperf.Params{Size: req.Size, Seed: req.Seed})
		return err
	})
	return w, err
}

func (p *pipeline) simulate(ctx context.Context, sp span, w *gpuperf.Workload) (*barra.Stats, error) {
	var stats *barra.Stats
	err := p.tr.do(sp, "barra", func() (err error) {
		stats, err = barra.RunContext(ctx, p.dev, w.Launch, w.Mem, &barra.Options{
			Parallelism:         workers,
			Regions:             w.Regions,
			MaxWarpInstructions: w.MaxWarpInstructions,
		})
		return err
	})
	if err != nil {
		return nil, err
	}
	e := stats.Engine
	p.tr.add("barra.blocks", float64(stats.Grid))
	p.tr.add("barra.replayed", float64(e.BlocksReplayed))
	p.tr.add("barra.accounted", float64(e.BlocksSimulated+e.BlocksReplayed))
	p.tr.add("barra.warp_instrs", float64(stats.Total.WarpInstrs))
	return stats, nil
}

// globalEntries counts the calibration's cached global-bandwidth
// benchmark results.
func globalEntries(cal *timing.Calibration) int {
	data, err := cal.MarshalJSON()
	if err != nil {
		return 0
	}
	var v struct {
		Global map[string]float64 `json:"global"`
	}
	if json.Unmarshal(data, &v) != nil {
		return 0
	}
	return len(v.Global)
}

// analyze is Analyzer.Analyze called layer by layer.
func (p *pipeline) analyze(ctx context.Context, sp span, cal *timing.Calibration, req gpuperf.Request) (*gpuperf.Result, error) {
	req, err := p.normalize(req)
	if err != nil {
		return nil, err
	}
	w, err := p.build(sp, req)
	if err != nil {
		return nil, err
	}
	if req.SkipVerify {
		w.Verify = nil
	}
	stats, err := p.simulate(ctx, sp, w)
	if err != nil {
		return nil, err
	}
	before := globalEntries(cal)
	var est *model.Estimate
	if err := p.tr.do(sp, "model", func() (err error) {
		est, err = model.Analyze(cal, w.Launch, stats)
		return err
	}); err != nil {
		return nil, err
	}
	p.tr.add("timing.global_bench_runs", float64(globalEntries(cal)-before))
	res := newResult(req, p.dev, w, est, stats)
	if spec, _ := p.reg.Lookup(req.Kernel); spec.Unverified {
		res.VerifyError = "unverified: user-submitted"
	}
	if w.Verify != nil {
		var worst float64
		if err := p.tr.do(sp, "verify", func() (err error) {
			worst, err = w.Verify(ctx, w.Mem)
			return err
		}); err != nil {
			return nil, err
		}
		res.MaxAbsError = &worst
	}
	if req.Measure {
		meas, err := p.run(ctx, sp, req)
		if err != nil {
			return nil, err
		}
		res.MeasuredSeconds = meas.Seconds
		res.MeasuredDominant = meas.DominantComponent()
		res.PredictionError = est.CompareError(meas.Seconds)
	}
	return res, nil
}

// run builds a fresh instance and times it on the device simulator.
func (p *pipeline) run(ctx context.Context, sp span, req gpuperf.Request) (device.Result, error) {
	w, err := p.build(sp, req)
	if err != nil {
		return device.Result{}, err
	}
	var meas device.Result
	err = p.tr.do(sp, "device", func() (err error) {
		meas, err = device.RunContext(ctx, p.dev, w.Launch, w.Mem)
		return err
	})
	if err != nil {
		return device.Result{}, err
	}
	p.tr.add("device.warp_instrs", float64(meas.WarpInstrs))
	p.tr.add("device.cycles", meas.Cycles)
	return meas, nil
}

// measure is Analyzer.Measure called layer by layer.
func (p *pipeline) measure(ctx context.Context, sp span, req gpuperf.Request) (*gpuperf.Measurement, error) {
	req, err := p.normalize(req)
	if err != nil {
		return nil, err
	}
	meas, err := p.run(ctx, sp, req)
	if err != nil {
		return nil, err
	}
	return &gpuperf.Measurement{
		Kernel:   req.Kernel,
		Device:   p.dev.Name,
		Size:     req.Size,
		Seed:     req.Seed,
		Seconds:  meas.Seconds,
		Dominant: meas.DominantComponent(),
	}, nil
}

// adviceTopTolerance mirrors the facade's threshold below which a
// scenario's headroom is noise.
const adviceTopTolerance = 0.01

// advise is Analyzer.Advise called layer by layer.
func (p *pipeline) advise(ctx context.Context, sp span, cal *timing.Calibration, req gpuperf.Request) (*gpuperf.Advice, error) {
	req, err := p.normalize(req)
	if err != nil {
		return nil, err
	}
	w, err := p.build(sp, req)
	if err != nil {
		return nil, err
	}
	stats, err := p.simulate(ctx, sp, w)
	if err != nil {
		return nil, err
	}
	var rep *advise.Report
	if err := p.tr.do(sp, "advise", func() (err error) {
		rep, err = advise.Run(cal, w.Launch, stats, &advise.Options{Parallelism: workers})
		return err
	}); err != nil {
		return nil, err
	}
	a := &gpuperf.Advice{
		Kernel:          req.Kernel,
		Device:          p.dev.Name,
		Size:            req.Size,
		Seed:            req.Seed,
		Grid:            w.Launch.Grid,
		Block:           w.Launch.Block,
		BaselineSeconds: rep.Baseline.TotalSeconds,
		Bottleneck:      rep.Baseline.Bottleneck.String(),
	}
	for _, s := range rep.Scenarios {
		a.Scenarios = append(a.Scenarios, gpuperf.ScenarioAdvice{
			Scenario:         s.Scenario,
			Title:            s.Title,
			PredictedSeconds: s.PredictedSeconds,
			Speedup:          s.Speedup,
			Components:       components(s.Estimate.Component),
			Explanation:      s.Explanation,
			TargetBlocks:     s.TargetBlocks,
		})
	}
	if top := rep.Top(adviceTopTolerance); top != nil {
		a.Top = top.Scenario
	}
	return a, nil
}

func components(t model.Times) gpuperf.ComponentTimes {
	return gpuperf.ComponentTimes{
		InstructionSeconds: t[model.CompInstruction],
		SharedSeconds:      t[model.CompShared],
		GlobalSeconds:      t[model.CompGlobal],
	}
}

// newResult folds the model estimate and dynamic statistics into a
// Result exactly as the facade does.
func newResult(req gpuperf.Request, dev gpuperf.Device, w *gpuperf.Workload, est *model.Estimate, stats *barra.Stats) *gpuperf.Result {
	r := &gpuperf.Result{
		Kernel:            req.Kernel,
		Device:            dev.Name,
		Size:              req.Size,
		Seed:              req.Seed,
		Grid:              w.Launch.Grid,
		Block:             w.Launch.Block,
		PredictedSeconds:  est.TotalSeconds,
		UpperBoundSeconds: est.UpperBoundSeconds,
		Components:        components(est.Component),
		Bottleneck:        est.Bottleneck.String(),
		NextBottleneck:    est.NextBottleneck.String(),
		Causes:            est.Causes(),
		Serialized:        est.Serialized,
		Occupancy: gpuperf.OccupancySummary{
			Blocks:        est.Occupancy.Blocks,
			WarpsPerBlock: est.Occupancy.WarpsPerBlock,
			ActiveWarps:   est.Occupancy.ActiveWarps,
			Limiter:       est.Occupancy.Limiter,
		},
		Diagnostics: gpuperf.Diagnostics{
			WarpsPerSM:           est.WarpsPerSM,
			Density:              est.Density,
			CoalescingEfficiency: est.CoalescingEfficiency,
			BankConflictFactor:   est.BankConflictFactor,
			TransPerThread:       est.TransPerThread,
			BlocksSimulated:      stats.Engine.BlocksSimulated,
			BlocksReplayed:       stats.Engine.BlocksReplayed,
			BatchedRuns:          stats.Engine.BatchedRuns,
			BatchedInstrs:        stats.Engine.BatchedInstrs,
		},
		Stats: gpuperf.StatsSummary{
			WarpInstrs:         stats.Total.WarpInstrs,
			FMADs:              stats.Total.FMADs,
			SharedAccesses:     stats.Total.SharedAccesses,
			SharedTx:           stats.Total.SharedTx,
			SharedBytes:        stats.Total.SharedBytes,
			GlobalTransactions: stats.Total.Global.Transactions,
			GlobalBytes:        stats.Total.Global.Bytes,
			GlobalUsefulBytes:  stats.Total.GlobalUsefulBytes,
			Barriers:           stats.Barriers,
		},
	}
	for _, st := range est.Stages {
		r.Stages = append(r.Stages, gpuperf.StageResult{
			Index:              st.Index,
			InstructionSeconds: st.Times[model.CompInstruction],
			SharedSeconds:      st.Times[model.CompShared],
			GlobalSeconds:      st.Times[model.CompGlobal],
			Bottleneck:         st.Bottleneck.String(),
			Warps:              st.Warps,
		})
	}
	if len(stats.RegionTraffic) > 0 {
		r.Stats.Regions = map[string]gpuperf.RegionTraffic{}
		for name, perSeg := range stats.RegionTraffic {
			t := perSeg[dev.MinSegmentBytes]
			r.Stats.Regions[name] = gpuperf.RegionTraffic{
				Transactions: t.Transactions,
				Bytes:        t.Bytes,
				UsefulBytes:  stats.RegionUseful[name],
			}
		}
	}
	if w.FLOPs > 0 {
		r.GFLOPS = est.GFLOPS(w.FLOPs)
	}
	return r
}
