// Command xspcltop is a live terminal dashboard for a running xspcl
// application: it polls the /statusz endpoint served by
// `xspclrun -http` and redraws per-stage
// service-time quantiles, replica widths, the stream-buffer window's
// occupancy bar and the watchdog health state.
//
//	xspclrun -builtin Blur-35 -backend real -cores 4 -http :8080 &
//	xspcltop -url http://localhost:8080
//
// With -once it prints a single frame and exits (useful in scripts);
// otherwise it refreshes until interrupted or the target goes away.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"net/http"
	"os"
	"strings"
	"time"

	"xspcl/internal/hinch"
	"xspcl/internal/obs"
)

func main() {
	url := flag.String("url", "http://localhost:8080", "base URL of the ops surface")
	interval := flag.Duration("interval", 500*time.Millisecond, "refresh interval")
	once := flag.Bool("once", false, "print one frame and exit")
	flag.Parse()

	base := strings.TrimSuffix(*url, "/")
	client := &http.Client{Timeout: 5 * time.Second}
	misses := 0
	for {
		snap, err := fetch(client, base+"/statusz")
		if err != nil {
			if *once {
				fail(err)
			}
			// A short outage is fine (the run may still be starting);
			// give up once the target stays unreachable.
			misses++
			if misses > 10 {
				fail(fmt.Errorf("target unreachable: %w", err))
			}
			time.Sleep(*interval)
			continue
		}
		misses = 0
		if !*once {
			fmt.Print("\x1b[2J\x1b[H")
		}
		obs.RenderDashboard(os.Stdout, snap)
		if *once {
			return
		}
		time.Sleep(*interval)
	}
}

func fetch(client *http.Client, url string) (hinch.Snapshot, error) {
	var snap hinch.Snapshot
	resp, err := client.Get(url)
	if err != nil {
		return snap, err
	}
	defer resp.Body.Close()
	if resp.StatusCode != http.StatusOK {
		return snap, fmt.Errorf("%s: %s", url, resp.Status)
	}
	err = json.NewDecoder(resp.Body).Decode(&snap)
	return snap, err
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, err)
	os.Exit(1)
}
