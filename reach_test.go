package repro

import (
	"bufio"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"strings"
	"testing"
)

// TestReachAllowList holds testdata/reach.allow, the functions `make
// reach` may find unreached, to the tree without running any driver:
// every entry names a function that exists, once, in sorted order, with
// a reason. An entry whose function was deleted or renamed fails here,
// so the list cannot keep excusing code that is gone.
func TestReachAllowList(t *testing.T) {
	f, err := os.Open("testdata/reach.allow")
	if err != nil {
		t.Fatal(err)
	}
	defer f.Close()
	decls := map[string]map[string]bool{} // path -> "Recv.Func" or "Func"
	prev := ""
	sc := bufio.NewScanner(f)
	for n := 1; sc.Scan(); n++ {
		line := sc.Text()
		if line == "" || strings.HasPrefix(line, "#") {
			continue
		}
		fields := strings.Fields(line)
		if len(fields) < 3 {
			t.Errorf("reach.allow:%d: %q: want \"path func  reason\", the reason not empty", n, line)
			continue
		}
		path, fn := fields[0], fields[1]
		key := path + " " + fn
		switch {
		case key == prev:
			t.Errorf("reach.allow:%d: %s listed twice", n, key)
		case key < prev:
			t.Errorf("reach.allow:%d: %s sorts before %s, the line above it", n, key, prev)
		}
		prev = key
		if decls[path] == nil {
			decls[path] = funcDecls(t, path)
		}
		if !decls[path][fn] {
			t.Errorf("reach.allow:%d: %s declares no function %s", n, path, fn)
		}
	}
	if err := sc.Err(); err != nil {
		t.Fatal(err)
	}
}

// funcDecls names every function declared in the Go file at path, a
// method as "Recv.Func" (the receiver's type without its *), the way
// `go tool covdata func` names it.
func funcDecls(t *testing.T, path string) map[string]bool {
	t.Helper()
	out := map[string]bool{}
	file, err := parser.ParseFile(token.NewFileSet(), path, nil, 0)
	if err != nil {
		t.Errorf("reach.allow: %v", err)
		return out
	}
	for _, d := range file.Decls {
		fd, ok := d.(*ast.FuncDecl)
		if !ok {
			continue
		}
		name := fd.Name.Name
		if fd.Recv != nil && len(fd.Recv.List) == 1 {
			typ := fd.Recv.List[0].Type
			if star, ok := typ.(*ast.StarExpr); ok {
				typ = star.X
			}
			if id, ok := typ.(*ast.Ident); ok {
				name = id.Name + "." + name
			}
		}
		out[name] = true
	}
	return out
}
