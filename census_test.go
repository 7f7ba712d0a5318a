package sybilwild

import (
	"bytes"
	"encoding/json"
	"fmt"
	"go/ast"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io"
	"os"
	"os/exec"
	"path/filepath"
	"sort"
	"strings"
	"testing"
)

// censusAllowlist names the exported identifiers under internal/ that
// no non-test code calls but that stay exported on purpose, each with
// its reason. Keys are "pkg.Name" or "pkg.Type.Method".
var censusAllowlist = map[string]string{
	"graph.Graph.Equal":         "test oracle: snapshot and property tests compare rebuilt graphs with it",
	"graph.Graph.ComponentsBFS": "test oracle: the reference Components is checked against",
	"wire.ParsePBatch":          "fuzz oracle for ParsePBatchBounds",
	"spool.WithLogger":          "test seam: spool tests assert the loud-error lines",
	"detector.Pipeline.Skipped": "the only count of refused outside input (negative IDs); ROADMAP item 7a serves it on /statusz",
	"cluster.Worker.Kill":       "crash double: a kill -9 that saves nothing",
	"campaign.Burst":            "test support: the one seeded burst campaign; benchmark/feed.go moves onto it in ROADMAP item 2",
}

// censusInterfaces are the standard-library interfaces whose methods
// are called by the standard library, not by this repo's code.
var censusInterfaces = [][2]string{
	{"fmt", "Stringer"},
	{"sort", "Interface"},
	{"container/heap", "Interface"},
}

// TestSurfaceCensus holds every exported identifier declared in a
// non-test file under internal/ to a caller outside the tests: a
// non-test file of this module (its own package counts) or any file of
// the benchmark/ module. A method is also used when it implements an
// interface declared in either module, or error, fmt.Stringer,
// sort.Interface or heap.Interface. A reference from inside the
// identifier's own declaration (a recursive call, a type's own
// methods) does not count. What has no caller is deleted, made
// private, moved into a test file, or listed in censusAllowlist.
func TestSurfaceCensus(t *testing.T) {
	c := newCensus(t)
	c.check(t, ".", false)
	c.check(t, "benchmark", true)
	c.ifaces = append(c.ifaces, types.Universe.Lookup("error").Type().Underlying().(*types.Interface))
	for _, si := range censusInterfaces {
		// A package neither module imports calls nothing in it.
		if p, err := c.Import(si[0]); err == nil {
			c.ifaces = append(c.ifaces, p.Scope().Lookup(si[1]).Type().Underlying().(*types.Interface))
		}
	}

	var unused []string
	used, allowed := 0, 0
	for _, d := range c.decls {
		_, listed := censusAllowlist[d.key]
		switch {
		case c.isUsed(d):
			used++
			if listed {
				t.Errorf("allowlist entry %s is used; remove it from censusAllowlist", d.key)
			}
		case listed:
			allowed++
		default:
			unused = append(unused, fmt.Sprintf("%s %s", d.key, d.pos))
		}
	}
	for key, reason := range censusAllowlist {
		switch {
		case c.byKey[key] == nil:
			t.Errorf("allowlist entry %s names no exported declaration under internal/", key)
		case reason == "":
			t.Errorf("allowlist entry %s gives no reason", key)
		}
	}
	sort.Strings(unused)
	for _, u := range unused {
		t.Errorf("exported but unused outside tests: %s", u)
	}
	t.Logf("census: %d exported declarations under internal/, %d used, %d allowlisted",
		len(c.decls), used, allowed)
}

type censusDecl struct {
	key string
	pos string
	obj types.Object
	// own are the source ranges of the declaration itself: references
	// from inside them do not make it used.
	own []ast.Node
}

type census struct {
	fset    *token.FileSet
	root    string
	pkgs    map[string]*types.Package // type-checked from source
	exports map[string]string         // import path -> export data file
	std     types.Importer

	decls  []*censusDecl
	byObj  map[types.Object]*censusDecl
	byKey  map[string]*censusDecl
	uses   map[types.Object][]token.Pos
	ifaces []*types.Interface
}

func newCensus(t *testing.T) *census {
	t.Helper()
	root, err := filepath.Abs(".")
	if err != nil {
		t.Fatal(err)
	}
	c := &census{
		fset:    token.NewFileSet(),
		root:    root,
		pkgs:    map[string]*types.Package{},
		exports: map[string]string{},
		byObj:   map[types.Object]*censusDecl{},
		byKey:   map[string]*censusDecl{},
		uses:    map[types.Object][]token.Pos{},
	}
	c.std = importer.ForCompiler(c.fset, "gc", func(path string) (io.ReadCloser, error) {
		f, ok := c.exports[path]
		if !ok {
			return nil, fmt.Errorf("census: no export data for %q", path)
		}
		return os.Open(f)
	})
	return c
}

// Import resolves a module package to its source-checked types and
// everything else to compiler export data.
func (c *census) Import(path string) (*types.Package, error) {
	if p, ok := c.pkgs[path]; ok {
		return p, nil
	}
	return c.std.Import(path)
}

type listedPackage struct {
	ImportPath   string
	Dir          string
	Export       string
	GoFiles      []string
	TestGoFiles  []string
	XTestGoFiles []string
	Module       *struct{ Main bool }
}

// check type-checks the main module rooted at dir. The root module
// contributes its non-test files; the benchmark module (allFiles)
// contributes its tests too.
func (c *census) check(t *testing.T, dir string, allFiles bool) {
	t.Helper()
	args := []string{"list", "-deps", "-export", "-json"}
	if allFiles {
		args = append(args, "-test")
	}
	cmd := exec.Command("go", append(args, "./...")...)
	cmd.Dir = dir
	var stderr bytes.Buffer
	cmd.Stderr = &stderr
	out, err := cmd.Output()
	if err != nil {
		t.Fatalf("go %s: %v\n%s", strings.Join(args, " "), err, stderr.String())
	}
	var main []listedPackage
	for dec := json.NewDecoder(bytes.NewReader(out)); dec.More(); {
		var p listedPackage
		if err := dec.Decode(&p); err != nil {
			t.Fatal(err)
		}
		if strings.Contains(p.ImportPath, " ") || strings.HasSuffix(p.ImportPath, ".test") {
			continue // test variants: the plain package lists its test files
		}
		if p.Export != "" {
			c.exports[p.ImportPath] = p.Export
		}
		if p.Module != nil && p.Module.Main {
			main = append(main, p)
		}
	}
	// -deps lists dependencies first, so each package's module imports
	// are checked before it.
	for _, p := range main {
		files := p.GoFiles
		if allFiles {
			files = append(append([]string{}, files...), p.TestGoFiles...)
		}
		c.checkFiles(t, p.ImportPath, p.Dir, files, !allFiles)
		if allFiles && len(p.XTestGoFiles) > 0 {
			c.checkFiles(t, p.ImportPath+"_test", p.Dir, p.XTestGoFiles, false)
		}
	}
}

// checkFiles type-checks one package and records what it refers to
// and the interfaces it declares. A registered package is importable
// by the packages checked after it and, under internal/, contributes
// its exported declarations.
func (c *census) checkFiles(t *testing.T, path, dir string, names []string, register bool) {
	t.Helper()
	var files []*ast.File
	for _, n := range names {
		f, err := parser.ParseFile(c.fset, filepath.Join(dir, n), nil, parser.SkipObjectResolution)
		if err != nil {
			t.Fatal(err)
		}
		files = append(files, f)
	}
	info := &types.Info{Defs: map[*ast.Ident]types.Object{}, Uses: map[*ast.Ident]types.Object{}}
	conf := types.Config{Importer: c}
	pkg, err := conf.Check(path, c.fset, files, info)
	if err != nil {
		t.Fatalf("type-check %s: %v", path, err)
	}
	if register {
		c.pkgs[path] = pkg
	}
	for id, obj := range info.Uses {
		if f, ok := obj.(*types.Func); ok {
			obj = f.Origin()
		}
		c.uses[obj] = append(c.uses[obj], id.Pos())
	}
	for _, obj := range info.Defs {
		if tn, ok := obj.(*types.TypeName); ok && !tn.IsAlias() {
			if it, ok := tn.Type().Underlying().(*types.Interface); ok && tn.Parent() == pkg.Scope() {
				c.ifaces = append(c.ifaces, it)
			}
		}
	}
	if register && strings.Contains(path+"/", "/internal/") {
		c.collect(pkg, files, info)
	}
}

// collect records the package's exported declarations with the source
// ranges that make up each one.
func (c *census) collect(pkg *types.Package, files []*ast.File, info *types.Info) {
	add := func(obj types.Object, key string, own ast.Node) {
		pos := c.fset.Position(obj.Pos())
		rel, err := filepath.Rel(c.root, pos.Filename)
		if err != nil {
			rel = pos.Filename
		}
		d := &censusDecl{key: key, pos: fmt.Sprintf("%s:%d", filepath.ToSlash(rel), pos.Line), obj: obj, own: []ast.Node{own}}
		c.decls = append(c.decls, d)
		c.byObj[obj] = d
		c.byKey[key] = d
	}
	name := pkg.Name()
	for _, f := range files {
		for _, decl := range f.Decls {
			gd, ok := decl.(*ast.GenDecl)
			if !ok {
				continue
			}
			for _, spec := range gd.Specs {
				switch spec := spec.(type) {
				case *ast.TypeSpec:
					if spec.Name.IsExported() {
						add(info.Defs[spec.Name], name+"."+spec.Name.Name, spec)
					}
				case *ast.ValueSpec:
					for _, id := range spec.Names {
						if id.IsExported() {
							add(info.Defs[id], name+"."+id.Name, spec)
						}
					}
				}
			}
		}
	}
	// Methods second, so that a type's own methods can be credited to
	// its declaration: a reference from a receiver or method body of T
	// does not make T used.
	for _, f := range files {
		for _, decl := range f.Decls {
			fd, ok := decl.(*ast.FuncDecl)
			if !ok {
				continue
			}
			fn := info.Defs[fd.Name].(*types.Func)
			if fd.Recv == nil {
				if fd.Name.IsExported() {
					add(fn, name+"."+fd.Name.Name, fd)
				}
				continue
			}
			recv := recvNamed(fn)
			if d := c.byObj[recv.Obj()]; d != nil {
				d.own = append(d.own, fd)
			}
			if fd.Name.IsExported() && !isInterface(recv) {
				add(fn, name+"."+recv.Obj().Name()+"."+fd.Name.Name, fd)
			}
		}
	}
}

func recvNamed(fn *types.Func) *types.Named {
	t := fn.Type().(*types.Signature).Recv().Type()
	if p, ok := t.(*types.Pointer); ok {
		t = p.Elem()
	}
	return t.(*types.Named)
}

func isInterface(t types.Type) bool {
	_, ok := t.Underlying().(*types.Interface)
	return ok
}

func (c *census) isUsed(d *censusDecl) bool {
	for _, pos := range c.uses[d.obj] {
		inside := false
		for _, n := range d.own {
			if n.Pos() <= pos && pos < n.End() {
				inside = true
				break
			}
		}
		if !inside {
			return true
		}
	}
	fn, ok := d.obj.(*types.Func)
	if !ok || fn.Type().(*types.Signature).Recv() == nil {
		return false
	}
	return c.implements(fn)
}

// implements reports whether the method satisfies a method of an
// interface its receiver type implements.
func (c *census) implements(fn *types.Func) bool {
	named := recvNamed(fn)
	for _, it := range c.ifaces {
		for i := 0; i < it.NumMethods(); i++ {
			if it.Method(i).Name() != fn.Name() {
				continue
			}
			if types.Implements(named, it) || types.Implements(types.NewPointer(named), it) {
				return true
			}
			break
		}
	}
	return false
}
