package conformance

import (
	"crypto/sha256"
	"fmt"
	"os"
	"strings"
	"testing"

	"xspcl/internal/xspcl"
)

// generatorDigestsFile pins every generator's output: one SHA-256 per
// (family, seed) over the emitted XML plus the run parameters the
// battery reads from the Gen. A refactor of the harness must leave the
// file unchanged — same programs, same checks, so same verdicts.
const generatorDigestsFile = "testdata/generators.sha256"

// generatorDigests renders the pinned digests, one "family seed sha256"
// line each.
func generatorDigests() (string, error) {
	var b strings.Builder
	line := func(family string, seed uint64, g *Gen, extra string) error {
		xml, err := xspcl.EmitXML(g.Prog)
		if err != nil {
			return fmt.Errorf("%s seed %d: emit: %w", family, seed, err)
		}
		h := sha256.New()
		fmt.Fprintf(h, "%s\n%s", xml, extra)
		fmt.Fprintf(&b, "%s %d %x\n", family, seed, h.Sum(nil))
		return nil
	}
	plain := func(g *Gen) string {
		return fmt.Sprintf("depth=%d cap=%d iters=%d frames=%d", g.Depth, g.StreamCap, g.Iters, g.Frames)
	}
	for seed := uint64(0); seed < 200; seed++ {
		g, err := Generate(seed)
		if err != nil {
			return "", err
		}
		if err := line("gen", seed, g, plain(g)); err != nil {
			return "", err
		}
		if g, err = GenerateReplicated(seed); err != nil {
			return "", err
		}
		if err := line("replicated", seed, g, plain(g)); err != nil {
			return "", err
		}
		f, err := GenerateFaulty(seed)
		if err != nil {
			return "", err
		}
		extra := fmt.Sprintf("mode=%d from=%d retries=%d depth=%d iters=%d injector=%+v",
			int(f.Mode), f.From, f.Retries, f.Depth, f.Iters, *f.Injector)
		if err := line("faulty", seed, f, extra); err != nil {
			return "", err
		}
	}
	for kind := BreakKind(0); kind < NumBreakKinds; kind++ {
		for _, seed := range smokeSeeds {
			g, err := GenerateBroken(seed, kind)
			if err != nil {
				return "", err
			}
			if err := line("broken/"+kind.String(), seed, g, plain(g)); err != nil {
				return "", err
			}
		}
	}
	return b.String(), nil
}

// TestGeneratorsPinned recomputes the generator digests and compares
// them with the committed file.
func TestGeneratorsPinned(t *testing.T) {
	want, err := os.ReadFile(generatorDigestsFile)
	if err != nil {
		t.Fatal(err)
	}
	got, err := generatorDigests()
	if err != nil {
		t.Fatal(err)
	}
	wl, gl := strings.Split(string(want), "\n"), strings.Split(got, "\n")
	if len(wl) != len(gl) {
		t.Fatalf("%d digest lines, %s has %d", len(gl), generatorDigestsFile, len(wl))
	}
	for i := range wl {
		if wl[i] != gl[i] {
			t.Errorf("generator output changed:\n  pinned %s\n  now    %s", wl[i], gl[i])
		}
	}
}
