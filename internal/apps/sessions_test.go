package apps

import (
	"fmt"
	"math/rand"
	"testing"
	"time"

	"xspcl/internal/components"
	"xspcl/internal/hinch"
	"xspcl/internal/serve"
)

// TestMediaSessionsPoolStress runs the paper's media applications as
// concurrent supervisor sessions — eight at a time on the real backend,
// a third of them cancelled mid-run — against the one thing they all
// share: the global frame and coefficient-frame free-lists. A cancelled
// session drains its stream complement back to the pools while its
// neighbours are busy pulling frames out, so any ownership bug (a frame
// recycled with a live reference, or handed to two streams) corrupts
// pixel data and shows up as a checksum mismatch in a session that ran
// to completion.
// Every completed session must match its hand-written sequential
// baseline exactly; run under -race in CI this doubles as the pool's
// cross-application concurrency audit (ISSUE: 8-session stress).
func TestMediaSessionsPoolStress(t *testing.T) {
	pip1 := PiPConfig{W: 128, H: 64, Frames: 24, Factor: 4, Slices: 4, Pips: 1, Every: 4}
	pip2 := pip1
	pip2.Pips = 2
	blur := BlurConfig{W: 64, H: 48, Frames: 24, Slices: 4, Taps: 3, Every: 4}
	jpip := JPiPConfig{W: 64, H: 48, Frames: 24, Factor: 4, Slices: 4, Quality: 75, Pips: 2, Every: 4}

	type flavour struct {
		v      *Variant
		frames int
		chk    uint64
	}
	var flavours []flavour
	for _, f := range []struct {
		v   *Variant
		seq func() (*SeqResult, error)
		n   int
	}{
		{NewPiPVariant("stress-pip1", pip1), func() (*SeqResult, error) { return SeqPiP(pip1) }, pip1.Frames},
		{NewPiPVariant("stress-pip2", pip2), func() (*SeqResult, error) { return SeqPiP(pip2) }, pip2.Frames},
		{NewBlurVariant("stress-blur3", blur), func() (*SeqResult, error) { return SeqBlur(blur) }, blur.Frames},
		{NewJPiPVariant("stress-jpip2", jpip), func() (*SeqResult, error) { return SeqJPiP(jpip) }, jpip.Frames},
	} {
		seq, err := f.seq()
		if err != nil {
			t.Fatal(err)
		}
		flavours = append(flavours, flavour{v: f.v, frames: f.n, chk: seq.Checksum})
	}

	const sessions = 24
	sv := serve.New(serve.Limits{
		MaxSessions: 8,
		QueueDepth:  sessions,
		DrainGrace:  5 * time.Second,
	})
	rng := rand.New(rand.NewSource(42))

	type slot struct {
		fl   flavour
		s    *serve.Session
		app  *hinch.App
		want bool // cancellation was scheduled
	}
	slots := make([]*slot, sessions)
	for i := range slots {
		sl := &slot{fl: flavours[i%len(flavours)]}
		v := sl.fl.v
		job := serve.Job{
			Name: fmt.Sprintf("%s-%d", v.Name, i), Cores: 2, Iterations: sl.fl.frames,
			New: func() (*hinch.App, error) {
				app, err := v.NewApp(hinch.Config{Backend: hinch.BackendReal, Cores: 2})
				sl.app = app
				return app, err
			},
		}
		s, err := sv.Submit(job)
		if err != nil {
			t.Fatalf("session %d: %v", i, err)
		}
		sl.s = s
		if i%3 == 2 {
			sl.want = true
			delay := time.Duration(rng.Intn(4000)) * time.Microsecond
			time.AfterFunc(delay, s.Cancel)
		}
		slots[i] = sl
	}

	completed := 0
	for i, sl := range slots {
		outcome, rep, err := sl.s.Wait()
		switch outcome {
		case serve.OutcomeCompleted:
			sink, ok := sl.app.Component(sl.fl.v.Sink).(*components.VideoSink)
			if !ok {
				t.Fatalf("session %d: sink missing", i)
			}
			if rep.Iterations != sl.fl.frames || sink.Count() != sl.fl.frames {
				t.Errorf("session %d (%s): %d iterations, sink saw %d, want %d",
					i, sl.fl.v.Name, rep.Iterations, sink.Count(), sl.fl.frames)
			}
			if got := sink.Checksum(); got != sl.fl.chk {
				t.Errorf("session %d (%s): checksum %016x, sequential baseline %016x — frame corruption under concurrency",
					i, sl.fl.v.Name, got, sl.fl.chk)
			}
			completed++
		case serve.OutcomeCancelled:
			if !sl.want {
				t.Errorf("session %d (%s): cancelled without a scheduled cancel", i, sl.fl.v.Name)
			}
			if rep != nil && rep.Iterations > sl.fl.frames {
				t.Errorf("session %d (%s): cancelled yet overran: %d > %d",
					i, sl.fl.v.Name, rep.Iterations, sl.fl.frames)
			}
		default:
			t.Errorf("session %d (%s): outcome %s (err %v)", i, sl.fl.v.Name, outcome, err)
		}
	}
	if completed == 0 {
		t.Error("stress completed zero sessions — every run lost its cancel race")
	}
	final := sv.Drain()
	if res := final.Residual(); res != 0 {
		t.Errorf("drain left residual %d: %+v", res, final)
	}
	t.Logf("media sessions: %+v (%d checksum-verified)", final, completed)
}
