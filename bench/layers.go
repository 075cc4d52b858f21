package main

import (
	"fmt"
	"time"

	"xspcl"
	"xspcl/internal/analysis"
	"xspcl/internal/graph"
	"xspcl/internal/kernels"
	"xspcl/internal/mjpeg"
)

// timeCalls returns the median duration of f in microseconds over reps
// calls, after one untimed call.
func timeCalls(reps int, f func() error) (float64, error) {
	if err := f(); err != nil {
		return 0, err
	}
	us := make([]float64, reps)
	for i := range us {
		t0 := time.Now()
		if err := f(); err != nil {
			return 0, err
		}
		us[i] = float64(time.Since(t0)) / 1e3
	}
	return median(us), nil
}

// setupLayers times the stages of a build one by one: parse and
// elaborate, static analysis (not on the build path; xspclvet runs it),
// planning, and wiring the App.
func (r *runner) setupLayers(m map[string]float64) error {
	const reps = 9
	var prog *xspcl.Program
	var err error
	if m["xspcl.load_us"], err = timeCalls(reps, func() (err error) {
		prog, err = xspcl.Load(r.spec)
		return err
	}); err != nil {
		return err
	}
	if m["analysis.analyze_us"], err = timeCalls(reps, func() error {
		_, err := analysis.Analyze(prog, analysis.Options{Catalog: r.reg})
		return err
	}); err != nil {
		return err
	}
	allOn := map[string]bool{}
	for name := range prog.Options() {
		allOn[name] = true
	}
	var plan *graph.Plan
	if m["graph.plan_us"], err = timeCalls(reps, func() (err error) {
		plan, err = graph.BuildPlan(prog, allOn)
		return err
	}); err != nil {
		return err
	}
	m["graph.tasks"] = float64(len(plan.Tasks))
	m["hinch.newapp_us"], err = timeCalls(reps, func() error {
		_, err := xspcl.NewApp(prog, r.reg, r.cfg)
		return err
	})
	return err
}

// kernelLayers times the pixel kernels and the JPEG stages directly, at
// the geometries the applications use, on one thread. Rates count the
// bytes (or pixels) of the plane each call reads.
func kernelLayers(m map[string]float64, seed uint64) error {
	const reps = 15
	rate := func(units int, us float64) float64 { return float64(units) / us } // units per us = M units/s
	never := func(f func()) func() error { return func() error { f(); return nil } }

	pip := xspcl.GenerateVideo(720, 576, 1, contentSeed(seed, 1))[0]
	small, canvas := xspcl.NewFrame(180, 144), xspcl.NewFrame(720, 576)
	us, _ := timeCalls(reps, never(func() {
		kernels.DownscalePlane(small.Y, 180, 144, pip.Y, 720, 576, 4, 0, 144)
	}))
	m["kernels.downscale4_mb_s"] = rate(len(pip.Y), us)
	us, _ = timeCalls(reps, never(func() {
		kernels.BlendPlane(canvas.Y, 720, 576, small.Y, 180, 144, 524, 416, 256, 0, 144)
	}))
	m["kernels.blend_mb_s"] = rate(len(small.Y), us)
	us, _ = timeCalls(reps, never(func() { kernels.CopyPlaneRows(canvas.Y, pip.Y, 720, 0, 576) }))
	m["kernels.copyrows_mb_s"] = rate(len(pip.Y), us)

	in := xspcl.GenerateVideo(360, 288, 1, contentSeed(seed, 1))[0]
	tmp, out := xspcl.NewFrame(360, 288), xspcl.NewFrame(360, 288)
	us, _ = timeCalls(reps, never(func() { kernels.BlurHPlane(tmp.Y, in.Y, 360, 288, 5, 0, 288) }))
	m["kernels.blurh5_mb_s"] = rate(len(in.Y), us)
	us, _ = timeCalls(reps, never(func() { kernels.BlurVPlane(out.Y, tmp.Y, 360, 288, 5, 0, 288) }))
	m["kernels.blurv5_mb_s"] = rate(len(in.Y), us)

	hd := xspcl.GenerateVideo(1280, 720, 1, contentSeed(seed, 1))[0]
	packet, err := mjpeg.Encode(hd, 75)
	if err != nil {
		return err
	}
	var cf *mjpeg.CoeffFrame
	if us, err = timeCalls(5, func() (err error) {
		cf, err = mjpeg.DecodeEntropy(packet)
		return err
	}); err != nil {
		return err
	}
	m["mjpeg.entropy_decode_mb_s"] = rate(len(packet), us)
	us, _ = timeCalls(5, never(func() { mjpeg.IDCTPlaneRows(hd.Y, cf.Planes[0], 0, 720) }))
	m["mjpeg.idct_mpix_s"] = rate(len(hd.Y), us)
	if us, err = timeCalls(5, func() error {
		_, err := mjpeg.Decode(packet)
		return err
	}); err != nil {
		return err
	}
	m["mjpeg.decode_frame_ms"] = us / 1e3
	return nil
}

// seqFrameSeconds times one configuration of the frozen reference, one
// thread, fingerprint included (the sink's share of the application),
// in whole passes over the period input frames.
func seqFrameSeconds(c renderer, period int) (float64, error) {
	const minWall = 300 * time.Millisecond
	frames := 0
	t0 := time.Now()
	for time.Since(t0) < minWall {
		for i := 0; i < period; i++ {
			f, err := c(i)
			if err != nil {
				return 0, err
			}
			frameCRC(f)
		}
		frames += period
	}
	return time.Since(t0).Seconds() / float64(frames), nil
}

// simLayers runs the same spec with the stock component library on the
// simulated tile. Virtual cycle counts are a property of the program,
// not of the host: they must repeat exactly, and they keep the paper's
// Fig. 9 scaling shape in view on a host too small to show it.
func (r *runner) simLayers(m map[string]float64, seed uint64) error {
	frames := r.wl.simFrames
	spec := r.wl.spec(seed, frames)
	run := func(cores int) (*xspcl.Report, float64, error) {
		prog, err := xspcl.Load(spec)
		if err != nil {
			return nil, 0, err
		}
		app, err := xspcl.NewApp(prog, xspcl.DefaultRegistry(), xspcl.Config{Backend: xspcl.BackendSim, Cores: cores})
		if err != nil {
			return nil, 0, err
		}
		t0 := time.Now()
		rep, err := app.Run(frames)
		if err == nil && rep.Iterations != frames {
			err = fmt.Errorf("sim processed %d of %d iterations", rep.Iterations, frames)
		}
		return rep, time.Since(t0).Seconds(), err
	}
	c1, wall, err := run(1)
	if err != nil {
		return err
	}
	again, _, err := run(1)
	if err != nil {
		return err
	}
	if again.Cycles != c1.Cycles {
		return fmt.Errorf("sim cycle count does not repeat: %d then %d", c1.Cycles, again.Cycles)
	}
	m["sim.cycles_per_frame_c1"] = float64(c1.Cycles) / float64(frames)
	m["sim.wall_us_per_job"] = wall * 1e6 / float64(c1.Jobs)
	for _, cores := range []int{2, 4, 8} {
		rep, _, err := run(cores)
		if err != nil {
			return err
		}
		m[fmt.Sprintf("sim.speedup_c%d", cores)] = float64(c1.Cycles) / float64(rep.Cycles)
	}
	return nil
}
