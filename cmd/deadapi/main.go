// Command deadapi fails when an exported identifier under internal/ has
// no reference outside tests anywhere in the repository. Run it from
// the repository root (make guard-dead-api); it takes no flags.
//
// Every Go package of every module in the tree (the root module and
// bench/) is parsed and type-checked from source, test files left out.
// The candidates are the exported package-level funcs, types, consts
// and vars of the packages under internal/, the exported methods of
// their named types and the exported fields of their exported structs.
// A candidate is used when a checked file names it (types.Info.Uses,
// which covers selectors and composite-literal keys), when an unkeyed
// composite literal fills its struct, or — for a method — when its
// type implements an interface the program uses that has the method:
// error, fmt.Stringer, and every interface type the tree's code touches
// (heap.Interface through heap.Push, openflow.Message, simclock.Clock).
//
// Each finding is either deleted or named in deadapi-allow.txt, one
// "<package dir>.<Name or Type.Member> <reason>" per line. An entry
// that names nothing, or names something used, is stale and fails too.
package main

import (
	"bufio"
	"errors"
	"fmt"
	"go/ast"
	"go/build"
	"go/importer"
	"go/parser"
	"go/token"
	"go/types"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

const allowFile = "deadapi-allow.txt"

func main() {
	report, err := check(".")
	if err != nil {
		fmt.Fprintln(os.Stderr, "deadapi:", err)
		os.Exit(2)
	}
	for _, line := range report {
		fmt.Println(line)
	}
	if len(report) > 0 {
		fmt.Printf("deadapi: delete each unused name, or allowlist it in %s with a reason\n", allowFile)
		os.Exit(1)
	}
}

// pkg is one package of the tree: its directory relative to the root,
// its non-test files and, once checked, their syntax, types and uses.
type pkg struct {
	dir   string
	files []string
	syn   []*ast.File
	types *types.Package
	info  *types.Info
}

// loader type-checks the tree's packages from source. It hands every
// importer the one *types.Package it checked itself, so a use in one
// package is the object declared in another, and leaves the standard
// library to the source importer.
type loader struct {
	root string
	fset *token.FileSet
	std  types.ImporterFrom
	pkgs map[string]*pkg // by import path
}

// candidate is an exported identifier under internal/: its report key
// and where it is declared.
type candidate struct {
	key string
	pos token.Position
}

// check runs the guard on the tree at root and returns its report, one
// line per finding; empty when the tree is clean.
func check(root string) ([]string, error) {
	// The pure-Go variant of the standard library type-checks without a
	// C toolchain.
	build.Default.CgoEnabled = false
	fset := token.NewFileSet()
	l := &loader{
		root: root,
		fset: fset,
		std:  importer.ForCompiler(fset, "source", nil).(types.ImporterFrom),
		pkgs: map[string]*pkg{},
	}
	if err := l.discover(); err != nil {
		return nil, err
	}
	paths := make([]string, 0, len(l.pkgs))
	for path := range l.pkgs {
		paths = append(paths, path)
	}
	sort.Strings(paths)
	for _, path := range paths {
		if _, err := l.Import(path); err != nil {
			return nil, err
		}
	}

	cands := map[types.Object]candidate{}
	byKey := map[string]types.Object{}
	for _, p := range l.pkgs {
		if strings.HasPrefix(p.dir, "internal/") {
			for obj, c := range p.candidates(fset) {
				cands[obj] = c
				byKey[c.key] = obj
			}
		}
	}
	used, ifaces := l.used(), l.interfaces()
	isUsed := func(obj types.Object) bool { return used[obj] || satisfies(obj, ifaces) }

	allow, err := readAllow(filepath.Join(root, allowFile))
	if err != nil {
		return nil, err
	}
	allowed := map[string]bool{}
	var stale []string
	for _, a := range allow {
		allowed[a.key] = true
		if obj, ok := byKey[a.key]; !ok {
			stale = append(stale, fmt.Sprintf("%s:%d: %s: stale, names no exported identifier under internal/", allowFile, a.line, a.key))
		} else if isUsed(obj) {
			stale = append(stale, fmt.Sprintf("%s:%d: %s: stale, referenced outside tests", allowFile, a.line, a.key))
		}
	}

	var dead []candidate
	for obj, c := range cands {
		if !allowed[c.key] && !isUsed(obj) {
			dead = append(dead, c)
		}
	}
	sort.Slice(dead, func(i, j int) bool {
		a, b := dead[i].pos, dead[j].pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		return a.Offset < b.Offset
	})
	var report []string
	for _, c := range dead {
		report = append(report, fmt.Sprintf("%s:%d: %s: no reference outside tests", c.pos.Filename, c.pos.Line, c.key))
	}
	return append(report, stale...), nil
}

// discover finds every package of every module under the root, skipping
// testdata and hidden directories; a go.mod starts a module.
func (l *loader) discover() error {
	modPath := map[string]string{} // module root dir -> module path
	return filepath.WalkDir(l.root, func(path string, d fs.DirEntry, err error) error {
		if err != nil || !d.IsDir() {
			return err
		}
		if name := d.Name(); path != l.root && (name == "testdata" || name[0] == '.' || name[0] == '_') {
			return filepath.SkipDir
		}
		rel, err := filepath.Rel(l.root, path)
		if err != nil {
			return err
		}
		rel = filepath.ToSlash(rel)
		if mod, err := os.ReadFile(filepath.Join(path, "go.mod")); err == nil {
			if modPath[rel] = modulePath(mod); modPath[rel] == "" {
				return fmt.Errorf("%s/go.mod: no module line", rel)
			}
		}
		bp, err := build.Default.ImportDir(path, 0)
		if errors.As(err, new(*build.NoGoError)) {
			return nil
		} else if err != nil {
			return err
		}
		// The nearest enclosing module decides the import path.
		imp := ""
		for m := rel; imp == ""; m = parentDir(m) {
			if mp, ok := modPath[m]; ok {
				imp = mp
				if m != rel {
					imp += "/" + strings.TrimPrefix(rel, m+"/")
				}
			} else if m == "." {
				return fmt.Errorf("%s: no go.mod above it", rel)
			}
		}
		p := &pkg{dir: rel}
		for _, f := range bp.GoFiles {
			p.files = append(p.files, filepath.Join(path, f))
		}
		l.pkgs[imp] = p
		return nil
	})
}

// parentDir returns the parent of a slash-separated relative directory,
// "." for a top-level one.
func parentDir(rel string) string {
	if i := strings.LastIndex(rel, "/"); i >= 0 {
		return rel[:i]
	}
	return "."
}

// modulePath returns the path on a go.mod's module line.
func modulePath(mod []byte) string {
	for _, line := range strings.Split(string(mod), "\n") {
		if f := strings.Fields(line); len(f) == 2 && f[0] == "module" {
			return strings.Trim(f[1], `"`)
		}
	}
	return ""
}

func (l *loader) Import(path string) (*types.Package, error) {
	return l.ImportFrom(path, l.root, 0)
}

// ImportFrom returns the tree's own package, checked once, or the
// standard library's from source.
func (l *loader) ImportFrom(path, dir string, mode types.ImportMode) (*types.Package, error) {
	p, ok := l.pkgs[path]
	if !ok {
		return l.std.ImportFrom(path, dir, mode)
	}
	if p.types != nil {
		return p.types, nil
	}
	for _, f := range p.files {
		syn, err := parser.ParseFile(l.fset, f, nil, parser.SkipObjectResolution)
		if err != nil {
			return nil, err
		}
		p.syn = append(p.syn, syn)
	}
	p.info = &types.Info{
		Types: map[ast.Expr]types.TypeAndValue{},
		Defs:  map[*ast.Ident]types.Object{},
		Uses:  map[*ast.Ident]types.Object{},
	}
	conf := types.Config{Importer: l}
	tp, err := conf.Check(path, l.fset, p.syn, p.info)
	if err != nil {
		return nil, err
	}
	p.types = tp
	return tp, nil
}

// candidates lists p's exported package-level objects, the exported
// methods of its named types and the exported fields of its exported
// structs, each under its report key.
func (p *pkg) candidates(fset *token.FileSet) map[types.Object]candidate {
	out := map[types.Object]candidate{}
	add := func(obj types.Object, name string) {
		pos := fset.Position(obj.Pos())
		pos.Filename = p.dir + "/" + filepath.Base(pos.Filename)
		out[obj] = candidate{key: p.dir + "." + name, pos: pos}
	}
	scope := p.types.Scope()
	for _, name := range scope.Names() {
		obj := scope.Lookup(name)
		if obj.Exported() {
			add(obj, name)
		}
		tn, ok := obj.(*types.TypeName)
		if !ok || tn.IsAlias() {
			continue
		}
		named, ok := tn.Type().(*types.Named)
		if !ok {
			continue
		}
		for i := 0; i < named.NumMethods(); i++ {
			if m := named.Method(i); m.Exported() {
				add(m, name+"."+m.Name())
			}
		}
		if st, ok := named.Underlying().(*types.Struct); ok && obj.Exported() {
			for i := 0; i < st.NumFields(); i++ {
				if f := st.Field(i); f.Exported() && !f.Embedded() {
					add(f, name+"."+f.Name())
				}
			}
		}
	}
	return out
}

// used collects every object a checked file refers to: by name, or as
// a field an unkeyed composite literal fills.
func (l *loader) used() map[types.Object]bool {
	used := map[types.Object]bool{}
	for _, p := range l.pkgs {
		for _, obj := range p.info.Uses {
			used[origin(obj)] = true
		}
		for _, f := range p.syn {
			ast.Inspect(f, func(n ast.Node) bool {
				lit, ok := n.(*ast.CompositeLit)
				if !ok || len(lit.Elts) == 0 {
					return true
				}
				if _, keyed := lit.Elts[0].(*ast.KeyValueExpr); keyed {
					return true
				}
				if st, ok := p.info.Types[lit].Type.Underlying().(*types.Struct); ok {
					for i := 0; i < st.NumFields(); i++ {
						used[origin(st.Field(i))] = true
					}
				}
				return true
			})
		}
	}
	return used
}

// origin maps a method or field of an instantiated generic type to its
// declaration.
func origin(obj types.Object) types.Object {
	switch o := obj.(type) {
	case *types.Func:
		return o.Origin()
	case *types.Var:
		return o.Origin()
	}
	return obj
}

// interfaces indexes by method name the interfaces the program uses:
// error, fmt.Stringer when a tree package imports fmt (fmt looks for it
// on any operand), and every interface type a tree package touches —
// the type of one of its expressions or declared names, or of a
// parameter, result or field of a function or struct type it uses.
func (l *loader) interfaces() map[string][]*types.Interface {
	out := map[string][]*types.Interface{}
	seen := map[types.Type]bool{}
	var add func(t types.Type)
	add = func(t types.Type) {
		if t == nil || seen[t] {
			return
		}
		seen[t] = true
		if named, ok := t.(*types.Named); ok && named.TypeParams().Len() > named.TypeArgs().Len() {
			return // a generic declaration; its instances are added where used
		}
		switch u := t.Underlying().(type) {
		case *types.Interface:
			for i := 0; i < u.NumMethods(); i++ {
				out[u.Method(i).Name()] = append(out[u.Method(i).Name()], u)
			}
		case *types.Pointer:
			add(u.Elem())
		case *types.Slice:
			add(u.Elem())
		case *types.Signature:
			for _, tup := range []*types.Tuple{u.Params(), u.Results()} {
				for i := 0; i < tup.Len(); i++ {
					add(tup.At(i).Type())
				}
			}
		case *types.Struct:
			for i := 0; i < u.NumFields(); i++ {
				add(u.Field(i).Type())
			}
		}
	}
	add(types.Universe.Lookup("error").Type())
	for _, p := range l.pkgs {
		for _, tv := range p.info.Types {
			add(tv.Type)
		}
		for _, obj := range p.info.Defs {
			if obj != nil {
				add(obj.Type())
			}
		}
		for _, imp := range p.types.Imports() {
			if imp.Path() == "fmt" {
				add(imp.Scope().Lookup("Stringer").Type())
			}
		}
	}
	return out
}

// satisfies reports whether obj is a method whose receiver type, or a
// pointer to it, implements an interface that declares the method.
func satisfies(obj types.Object, ifaces map[string][]*types.Interface) bool {
	m, ok := obj.(*types.Func)
	if !ok || m.Type().(*types.Signature).Recv() == nil {
		return false
	}
	t := m.Type().(*types.Signature).Recv().Type()
	if ptr, ok := t.(*types.Pointer); ok {
		t = ptr.Elem()
	}
	if named, ok := t.(*types.Named); !ok || named.TypeParams().Len() > 0 {
		return false
	}
	for _, it := range ifaces[m.Name()] {
		if types.Implements(t, it) || types.Implements(types.NewPointer(t), it) {
			return true
		}
	}
	return false
}

// allowEntry is one line of the allowlist.
type allowEntry struct {
	key  string
	line int
}

// readAllow parses the allowlist: "<key> <reason>" per line, blank
// lines and #-comments skipped. A missing file is an empty list.
func readAllow(path string) ([]allowEntry, error) {
	f, err := os.Open(path)
	if errors.Is(err, fs.ErrNotExist) {
		return nil, nil
	} else if err != nil {
		return nil, err
	}
	defer f.Close()
	var out []allowEntry
	seen := map[string]bool{}
	sc := bufio.NewScanner(f)
	for n := 1; sc.Scan(); n++ {
		line := strings.TrimSpace(sc.Text())
		if line == "" || line[0] == '#' {
			continue
		}
		key, reason, _ := strings.Cut(line, " ")
		if strings.TrimSpace(reason) == "" {
			return nil, fmt.Errorf("%s:%d: %s has no reason", allowFile, n, key)
		}
		if seen[key] {
			return nil, fmt.Errorf("%s:%d: %s is listed twice", allowFile, n, key)
		}
		seen[key] = true
		out = append(out, allowEntry{key: key, line: n})
	}
	return out, sc.Err()
}
