//go:build conformance

package conformance

import (
	"fmt"
	"os"
	"strconv"
	"testing"
)

// TestConformanceLong is the nightly-scale sweep, compiled only under
// the "conformance" build tag:
//
//	go test -tags conformance -run TestConformanceLong -timeout 60m \
//	    ./internal/conformance/ -v
//
// CONFORMANCE_COUNT and CONFORMANCE_BASE size and place the seed range;
// a failure prints the seed, which replays with CONFORMANCE_SEED=<n>.
func TestConformanceLong(t *testing.T) {
	count := envInt(t, "CONFORMANCE_COUNT", 300)
	base := uint64(envInt(t, "CONFORMANCE_BASE", 1000))
	for i := 0; i < count; i++ {
		seed := base + uint64(i)
		t.Run(fmt.Sprint(seed), func(t *testing.T) {
			t.Parallel()
			if err := Check(seed, FamilyBase, Options{Perturb: true}); err != nil {
				t.Fatal(err)
			}
		})
	}
}

func envInt(t *testing.T, name string, def int) int {
	t.Helper()
	env := os.Getenv(name)
	if env == "" {
		return def
	}
	n, err := strconv.Atoi(env)
	if err != nil {
		t.Fatalf("%s=%q: %v", name, env, err)
	}
	return n
}
