// Reconfiguration: asynchronous user interaction with a running
// streaming application (paper §3.4). The PiP application runs on the
// real (goroutine) backend while this main goroutine plays the user:
// it pushes events into the manager's queue to toggle the second
// picture-in-picture and to reposition the first one through the
// blender's reconfiguration interface.
//
//	go run ./examples/reconfig
package main

import (
	"fmt"
	"log"
	"time"

	"xspcl"
	"xspcl/internal/apps"
	"xspcl/internal/components"
)

func main() {
	cfg := apps.DefaultPiP(1)
	cfg.W, cfg.H = 320, 240 // small enough to run instantly on the host
	cfg.Frames = 600
	cfg.Slices = 4
	cfg.Reconfig = true // include the pip2 option and its manager
	cfg.Every = 1 << 30 // the built-in trigger stays silent; we drive events

	spec := apps.PiPSpec(cfg)
	prog, err := xspcl.Load(spec)
	if err != nil {
		log.Fatal(err)
	}
	// Add a reposition binding to the manager: "move" events broadcast a
	// reconfiguration request to every component in the subgraph; only
	// the blenders implement the interface and handle "pos=x,y".
	for _, m := range prog.Managers() {
		m.Bindings = append(m.Bindings,
			xspcl.On("move", xspcl.ActionReconfig, "pos=16,16"),
			xspcl.On("moveback", xspcl.ActionReconfig, fmt.Sprintf("pos=%d,%d", 320-80-16, 240-60-16)),
		)
	}

	app, err := xspcl.NewApp(prog, xspcl.DefaultRegistry(), xspcl.Config{
		Backend: xspcl.BackendReal,
		Cores:   4,
	})
	if err != nil {
		log.Fatal(err)
	}

	// The "user": inject events while the application runs. The queue is
	// thread-safe; the manager's next subgraph entrance takes an event
	// pushed from outside the run.
	ui := app.Queue("ui")
	done := make(chan struct{})
	go func() {
		defer close(done)
		for i := 0; i < 6; i++ {
			ui.Push(xspcl.Event{Name: "toggle2"})
			ui.Push(xspcl.Event{Name: "move"})
			time.Sleep(5 * time.Millisecond)
			ui.Push(xspcl.Event{Name: "moveback"})
			time.Sleep(5 * time.Millisecond)
		}
	}()

	rep, err := app.Run(cfg.Frames)
	if err != nil {
		log.Fatal(err)
	}
	<-done
	fmt.Println(rep)
	// An option's components exist exactly while it is enabled.
	fmt.Printf("reconfigurations applied: %d; option pip2 now enabled: %v\n",
		rep.Reconfigs, app.Component("pipsrc2") != nil)
	sink := app.Component("snk").(*components.VideoSink)
	fmt.Printf("processed %d frames while being reconfigured\n", sink.Count())
}
