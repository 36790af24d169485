// Command dstore-vet runs the repository's invariant checkers (package
// internal/analysis) over the whole module and reports violations as
//
//	file:line: [checker] message
//
// exiting nonzero on any finding; a finding is tolerated only where it is
// made, by a same-line //nolint:<checker> comment that says why. Usage:
//
//	go run ./cmd/dstore-vet ./...
//	go run ./cmd/dstore-vet -json ./...
//	go run ./cmd/dstore-vet -github ./...   # CI error annotations
//
// Package patterns are accepted for familiarity but the analyzer always
// loads and checks the entire module containing the working directory.
package main

import (
	"encoding/json"
	"flag"
	"fmt"
	"os"
	"strings"

	"dstore/internal/analysis"
)

func main() {
	jsonOut := flag.Bool("json", false, "emit findings as JSON")
	githubOut := flag.Bool("github", false, "also emit GitHub Actions ::error annotations")
	flag.Parse()

	if err := run(*jsonOut, *githubOut); err != nil {
		fmt.Fprintln(os.Stderr, "dstore-vet:", err)
		os.Exit(2)
	}
}

func run(jsonOut, githubOut bool) error {
	wd, err := os.Getwd()
	if err != nil {
		return err
	}
	m, err := analysis.Load(wd)
	if err != nil {
		return err
	}
	fresh := analysis.Run(m)

	switch {
	case jsonOut:
		if fresh == nil {
			fresh = []analysis.Finding{}
		}
		enc := json.NewEncoder(os.Stdout)
		enc.SetIndent("", "  ")
		if err := enc.Encode(fresh); err != nil {
			return err
		}
	default:
		for _, f := range fresh {
			fmt.Println(f)
		}
	}
	if githubOut {
		for _, f := range fresh {
			fmt.Println(githubAnnotation(f))
		}
	}
	if len(fresh) > 0 {
		if !jsonOut {
			fmt.Fprintf(os.Stderr, "dstore-vet: %d finding(s)\n", len(fresh))
		}
		os.Exit(1)
	}
	return nil
}

// githubAnnotation formats one finding as a GitHub Actions workflow command
// so CI runs surface findings inline on the PR diff. Message payloads must
// %-escape the characters the command parser treats specially.
func githubAnnotation(f analysis.Finding) string {
	esc := strings.NewReplacer("%", "%25", "\r", "%0D", "\n", "%0A").Replace
	return fmt.Sprintf("::error file=%s,line=%d,title=dstore-vet %s::%s",
		f.File, f.Line, f.Checker, esc(f.Message))
}
