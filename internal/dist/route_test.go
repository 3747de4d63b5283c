package dist

import (
	"go/ast"
	"go/parser"
	"go/token"
	"sort"
	"testing"

	msqlast "github.com/measures-sql/msql/internal/ast"
)

// statementKinds lists every type in the ast package that implements
// ast.Statement (declares the stmt() marker method), read from source so
// that a new statement kind shows up here without anyone listing it.
func statementKinds(t *testing.T) []string {
	t.Helper()
	fset := token.NewFileSet()
	pkgs, err := parser.ParseDir(fset, "../ast", nil, 0)
	if err != nil {
		t.Fatal(err)
	}
	var names []string
	for _, pkg := range pkgs {
		for _, f := range pkg.Files {
			for _, d := range f.Decls {
				fd, ok := d.(*ast.FuncDecl)
				if !ok || fd.Recv == nil || fd.Name.Name != "stmt" || len(fd.Recv.List) != 1 {
					continue
				}
				typ := fd.Recv.List[0].Type
				if star, ok := typ.(*ast.StarExpr); ok {
					typ = star.X
				}
				if id, ok := typ.(*ast.Ident); ok {
					names = append(names, id.Name)
				}
			}
		}
	}
	sort.Strings(names)
	if len(names) == 0 {
		t.Fatal("found no ast.Statement implementations")
	}
	return names
}

// TestCoordinatorClassifiesEveryStatement requires routeOf to give
// every ast.Statement kind an explicit route, so a statement added to
// the parser cannot slip through the coordinator unclassified. A new
// kind needs a sample below and a case in routeOf.
func TestCoordinatorClassifiesEveryStatement(t *testing.T) {
	q := &msqlast.Query{}
	samples := map[string][]msqlast.Statement{
		"CreateTable": {&msqlast.CreateTable{Name: "t"}},
		"CreateView":  {&msqlast.CreateView{Name: "v", Query: q}},
		"Insert":      {&msqlast.Insert{Table: "t"}},
		"Drop":        {&msqlast.Drop{Kind: "TABLE", Name: "t"}},
		"Truncate":    {&msqlast.Truncate{Table: "t"}},
		"Explain": {
			&msqlast.Explain{Query: q},
			&msqlast.Explain{Query: q, Analyze: true},
			&msqlast.Explain{Execute: &msqlast.ExecuteStmt{Name: "p"}},
		},
		"Expand":      {&msqlast.Expand{Query: q}},
		"QueryStmt":   {&msqlast.QueryStmt{Query: q}},
		"Prepare":     {&msqlast.Prepare{Name: "p", Query: q}},
		"ExecuteStmt": {&msqlast.ExecuteStmt{Name: "p"}},
		"Deallocate":  {&msqlast.Deallocate{All: true}},
		"Kill":        {&msqlast.Kill{ID: 1}},
	}
	want := map[msqlast.Statement]stmtRoute{
		samples["Truncate"][0]:    routeBroadcast,
		samples["Explain"][0]:     routeLocal,
		samples["Explain"][1]:     routeRefused,
		samples["Explain"][2]:     routeRefused,
		samples["ExecuteStmt"][0]: routeRefused,
	}
	for _, name := range statementKinds(t) {
		stmts, ok := samples[name]
		if !ok {
			t.Errorf("ast.%s has no sample here: add one, and a route in routeOf", name)
			continue
		}
		for _, s := range stmts {
			got := routeOf(s)
			if got == routeUnclassified {
				t.Errorf("ast.%s is not classified by the coordinator", name)
			}
			if w, ok := want[s]; ok && got != w {
				t.Errorf("%s routes to %d, want %d", msqlast.FormatStatement(s), got, w)
			}
		}
	}
}
