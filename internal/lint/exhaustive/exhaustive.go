// Package exhaustive implements the enum-switch coverage analyzer.
//
// RT-Seed's behavior forks on small declared enums at every layer: thread
// lifecycle (kernel.State), the kernel actions (kernel.actionKind), trace
// record kinds (trace.Kind), scheduler policies. A switch that silently
// ignores a newly added member is exactly how "add a trace kind" corrupts
// the analyzer and Perfetto decoders three packages away. This analyzer
// makes the compiler-invisible rule checkable: a switch over a module enum
// must either cover every declared member or carry a reasoned
// //rtseed:partial-ok <reason> on the switch statement.
//
// An enum, for this analyzer, is a named type declared in this module whose
// underlying type is an integer and that has at least two package-scope
// constants — the iota-block idiom. Members are matched by constant value,
// so aliases (two names for one value) count as one member. Sentinel
// members whose name ends in "max", "count", or "limit" (any case) bound
// the enum rather than belong to it and are not required. Unexported
// members of another package's enum are unreachable from the switch and are
// likewise not required. A default clause does not count as coverage — it
// is precisely the arm that hides missing members; and a case arm with a
// non-constant expression makes the switch inscrutable, so such switches
// are skipped entirely.
package exhaustive

import (
	"go/ast"
	"sort"
	"strings"

	"rtseed/internal/lint"
)

// Analyzer is the enum-switch coverage checker.
var Analyzer = &lint.Analyzer{
	Name: "exhaustive",
	Doc: "check that switches over module enums cover every declared member\n\n" +
		"A switch whose tag is a module-declared integer enum (a named type with\n" +
		"an iota constant block) must have a case for every member value, or wear\n" +
		"//rtseed:partial-ok <reason>. Default clauses do not count as coverage.",
	Run: run,
}

func run(pass *lint.Pass) error {
	pass.InspectFuncs(func(file *ast.File, decl *ast.FuncDecl, n ast.Node) bool {
		sw, ok := n.(*ast.SwitchStmt)
		if !ok || sw.Tag == nil {
			return true
		}
		tv, ok := pass.TypesInfo().Types[sw.Tag]
		if !ok || tv.Type == nil {
			return true
		}
		enumName, members := lint.EnumMembers(pass.Pkg.Types, tv.Type)
		if enumName == "" || members == nil {
			return true
		}

		covered := map[string]bool{}
		for _, stmt := range sw.Body.List {
			clause, ok := stmt.(*ast.CaseClause)
			if !ok {
				continue
			}
			for _, expr := range clause.List {
				ctv, ok := pass.TypesInfo().Types[expr]
				if !ok || ctv.Value == nil {
					// A non-constant case arm: coverage is undecidable,
					// leave the switch alone.
					return true
				}
				covered[ctv.Value.ExactString()] = true
			}
		}

		var missing []lint.EnumMember
		for _, m := range members {
			if !covered[m.Value] {
				missing = append(missing, m)
			}
		}
		if len(missing) == 0 {
			return true
		}
		if pass.Waived(sw.Pos(), lint.DirPartialOK) {
			return true
		}
		sort.Slice(missing, func(i, j int) bool { return missing[i].Name < missing[j].Name })
		names := make([]string, len(missing))
		for i, m := range missing {
			names[i] = m.Name
		}
		pass.Reportf(sw.Pos(), "switch over %s misses %s (cover them or add //rtseed:partial-ok <reason>)",
			enumName, strings.Join(names, ", "))
		return true
	})
	return nil
}
