// Command golint runs the repo's custom source invariants
// (internal/analysis/golint: lockdiscipline, hotalloc).
//
// Direct mode checks directories and exits 1 on findings:
//
//	golint ./internal/hinch ./internal/hinch/trace
//
// It also speaks the go vet -vettool unit-checker protocol (the -V=full
// version handshake and the single vet.cfg argument), so CI can run it
// as:
//
//	go vet -vettool=$(pwd)/bin/golint ./internal/hinch/...
package main

import (
	"encoding/json"
	"fmt"
	"os"
	"path/filepath"
	"strings"

	"xspcl/internal/analysis/golint"
)

func main() {
	args := os.Args[1:]
	if len(args) == 1 && strings.HasPrefix(args[0], "-V") {
		// Version handshake: cmd/go hashes the trailing buildID= field
		// into its cache key, so bump it when the checks change.
		fmt.Printf("%s version devel buildID=golint-2\n", filepath.Base(os.Args[0]))
		return
	}
	if len(args) == 1 && args[0] == "-flags" {
		// Flag discovery: cmd/go asks which analyzer flags the tool
		// supports; none.
		fmt.Println("[]")
		return
	}
	if len(args) == 0 {
		fmt.Fprintln(os.Stderr, "usage: golint <dir>... | golint <vet.cfg>")
		os.Exit(2)
	}
	if len(args) == 1 && strings.HasSuffix(args[0], ".cfg") {
		os.Exit(vettool(args[0]))
	}
	exit := 0
	for _, dir := range args {
		diags, err := golint.RunDir(dir)
		if err != nil {
			fmt.Fprintln(os.Stderr, err)
			os.Exit(2)
		}
		for _, d := range diags {
			fmt.Println(d)
			exit = 1
		}
	}
	os.Exit(exit)
}

// vetConfig is the subset of cmd/go's vet.cfg the checks need.
type vetConfig struct {
	ImportPath string
	GoFiles    []string
	VetxOutput string
}

// vettool runs one unit-checker invocation: check the unit's files,
// write the (empty) facts file the driver expects, report findings on
// stderr, and exit 2 when there are any — the convention go vet
// surfaces as a failed package.
func vettool(cfgPath string) int {
	data, err := os.ReadFile(cfgPath)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	var cfg vetConfig
	if err := json.Unmarshal(data, &cfg); err != nil {
		fmt.Fprintf(os.Stderr, "golint: parsing %s: %v\n", cfgPath, err)
		return 2
	}
	if cfg.VetxOutput != "" {
		// No facts are exported, but the driver requires the file.
		if err := os.WriteFile(cfg.VetxOutput, nil, 0o666); err != nil {
			fmt.Fprintln(os.Stderr, err)
			return 2
		}
	}
	var goFiles []string
	for _, f := range cfg.GoFiles {
		if strings.HasSuffix(f, ".go") { // cgo units may list others
			goFiles = append(goFiles, f)
		}
	}
	p, err := golint.LoadFiles(goFiles)
	if err != nil {
		fmt.Fprintln(os.Stderr, err)
		return 2
	}
	diags := golint.Run(p)
	for _, d := range diags {
		fmt.Fprintf(os.Stderr, "%s\n", d)
	}
	if len(diags) > 0 {
		return 2
	}
	return 0
}
