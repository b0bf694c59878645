// Command generic-lint runs this repository's custom determinism,
// performance, and concurrency analyzers (internal/analysis) over Go
// packages. It is built purely on the standard library and the go command:
// package metadata and the dependencies' export data come from
// `go list -json -export -deps`, syntax and types from go/ast, go/parser,
// go/token, and go/types (imports read through the gc export-data
// importer), and the heap escapes that generic/hotalloc reports from
// `go build -gcflags=-m=1`, run over the loaded packages on every
// invocation.
//
// Usage:
//
//	generic-lint ./...              # the whole module (run from its root)
//	generic-lint ./internal/hdc
//	generic-lint -analyzers detrand,hotalloc ./...
//	generic-lint -json ./...        # machine-readable findings for CI
//	generic-lint -list
//
// Findings print one per line as file:line:col: generic/<analyzer>: message,
// or with -json as an array of {file,line,col,analyzer,message} objects.
// The exit status is 0 when the tree is clean, 1 when findings were
// reported, and 2 when loading, type-checking or compiling failed —
// including a partial failure, where the packages that did load are still
// analyzed and reported but the run must not pass. Individual findings can
// be suppressed, with a mandatory reason, by a directive on the same or the
// preceding line:
//
//	//lint:ignore generic/<analyzer> <reason>
package main

import (
	"flag"
	"fmt"
	"os"

	"github.com/edge-hdc/generic/internal/analysis"
)

func main() {
	var (
		names   = flag.String("analyzers", "", "comma-separated analyzer subset (default: all)")
		list    = flag.Bool("list", false, "list the available analyzers and exit")
		jsonOut = flag.Bool("json", false, "emit findings as a JSON array (file/line/col/analyzer/message)")
	)
	flag.Parse()

	if *list {
		for _, a := range analysis.All() {
			fmt.Printf("generic/%-12s %s\n", a.Name, a.Doc)
		}
		return
	}

	analyzers, err := analysis.ByName(*names)
	if err != nil {
		fmt.Fprintln(os.Stderr, "generic-lint:", err)
		os.Exit(2)
	}
	patterns := flag.Args()
	if len(patterns) == 0 {
		patterns = []string{"./..."}
	}
	pkgs, loadErrs, err := analysis.Load(".", patterns)
	if err != nil {
		fmt.Fprintln(os.Stderr, "generic-lint:", err)
		os.Exit(2)
	}
	findings := analysis.Run(pkgs, analyzers)

	if *jsonOut {
		if err := analysis.WriteJSON(os.Stdout, findings); err != nil {
			fmt.Fprintln(os.Stderr, "generic-lint:", err)
			os.Exit(2)
		}
	} else {
		for _, f := range findings {
			fmt.Println(f)
		}
	}

	for _, le := range loadErrs {
		fmt.Fprintln(os.Stderr, "generic-lint: load:", le)
	}
	switch code := analysis.ExitCode(len(pkgs), len(findings), len(loadErrs)); code {
	case 1:
		fmt.Fprintf(os.Stderr, "generic-lint: %d finding(s)\n", len(findings))
		os.Exit(1)
	case 2:
		fmt.Fprintf(os.Stderr, "generic-lint: %d finding(s); %d package(s) failed to load or compile — partial analysis\n", len(findings), len(loadErrs))
		os.Exit(2)
	}
}
