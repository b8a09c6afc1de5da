// Package deadapi is a stdlib-only source check that keeps the module's
// internal API to what the program uses. It lists every exported func,
// method, type, var and const declared in a non-test file under
// internal/ that no non-test code references. Test-only API has a cost
// (readers take it for part of the pipeline, refactors must keep it
// compiling) and no user, so it belongs in the tests or nowhere.
//
// A declaration counts as used when:
//
//   - another package names it as pkg.Name through an import;
//   - a non-test file of its own package names it, other than in its
//     declaration (a method receiver counts as a use of its type);
//   - for a method, any non-test selector has its name, an interface in
//     the module declares its name, or the name is one the standard
//     library calls through an interface (String, Error, Len, ...).
//
// Every file under perfbench/, its tests included, counts as a caller:
// that module is frozen and compiles against this API.
//
// A deliberate oracle or test hook is kept with a line
// "// api:allow <reason>" in the declaration's doc comment (or as its
// trailing comment). The reason is required, and an annotation on a
// declaration that is used is reported as stale, so the allowlist never
// outgrows the declarations that need it.
//
// The check is syntactic: a selector of a method's name counts as a use
// whatever its receiver, and a local variable that shares an exported
// name counts as an in-package use. It may therefore miss dead API, but
// never reports API that is used.
package deadapi

import (
	"bufio"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"io/fs"
	"os"
	"path"
	"path/filepath"
	"sort"
	"strconv"
	"strings"
)

// Finding is one exported declaration nothing uses, or one malformed or
// stale api:allow annotation.
type Finding struct {
	Pos    token.Position
	Name   string // pkg.Name, or pkg.Recv.Name for a method
	Detail string
}

func (f Finding) String() string {
	return fmt.Sprintf("%s:%d: %s: %s", f.Pos.Filename, f.Pos.Line, f.Name, f.Detail)
}

// stdMethods are method names the standard library calls through its
// own interfaces (fmt.Stringer, error, sort.Interface, io, json, ...).
var stdMethods = map[string]bool{
	"String": true, "Error": true, "Unwrap": true, "Is": true,
	"MarshalJSON": true, "Len": true, "Less": true, "Swap": true,
	"Read": true, "Write": true, "Close": true, "Format": true,
}

const allowTag = "api:allow"

type srcFile struct {
	f      *ast.File
	pkg    string // import path of the file's package
	test   bool
	caller bool // non-test, or anywhere under perfbench/
}

// uses is what the callers reference.
type uses struct {
	qualified  map[string]bool            // "import/path.Name"
	local      map[string]map[string]bool // import path -> names used unqualified
	selectors  map[string]bool            // every selector name
	interfaces map[string]bool            // every interface method name
}

// Check parses every Go file under root (a module root with a go.mod;
// hidden and testdata directories are skipped) and reports the unused
// exported declarations of its internal/ packages. It also returns how
// many exported declarations it scanned.
func Check(root string) ([]Finding, int, error) {
	mod, err := modulePath(filepath.Join(root, "go.mod"))
	if err != nil {
		return nil, 0, err
	}
	fset := token.NewFileSet()
	var files []srcFile
	err = filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return err
		}
		if d.IsDir() {
			name := d.Name()
			if p != root && (strings.HasPrefix(name, ".") || name == "testdata") {
				return filepath.SkipDir
			}
			return nil
		}
		if !strings.HasSuffix(p, ".go") {
			return nil
		}
		rel, err := filepath.Rel(root, p)
		if err != nil {
			return err
		}
		f, err := parser.ParseFile(fset, p, nil, parser.ParseComments)
		if err != nil {
			return fmt.Errorf("parsing %s: %w", p, err)
		}
		dir := filepath.ToSlash(filepath.Dir(rel))
		test := strings.HasSuffix(p, "_test.go")
		files = append(files, srcFile{
			f:      f,
			pkg:    path.Join(mod, dir),
			test:   test,
			caller: !test || dir == "perfbench" || strings.HasPrefix(dir, "perfbench/"),
		})
		return nil
	})
	if err != nil {
		return nil, 0, err
	}

	// Package names by import path, so an import without a local name
	// resolves to the package clause rather than the last path element.
	names := map[string]string{}
	for _, sf := range files {
		if !sf.test {
			names[sf.pkg] = sf.f.Name.Name
		}
	}
	u := uses{
		qualified:  map[string]bool{},
		local:      map[string]map[string]bool{},
		selectors:  map[string]bool{},
		interfaces: map[string]bool{},
	}
	for _, sf := range files {
		if sf.caller {
			u.collect(sf, names)
		}
	}

	var out []Finding
	scanned := 0
	for _, sf := range files {
		if sf.test || !strings.HasPrefix(sf.pkg, mod+"/internal/") {
			continue
		}
		for _, d := range exportedDecls(sf.f) {
			scanned++
			used := u.used(sf.pkg, d)
			name := sf.f.Name.Name + "." + d.name
			if d.recv != "" {
				name = sf.f.Name.Name + "." + d.recv + "." + d.name
			}
			pos := fset.Position(d.pos)
			reason, annotated := allowReason(d.docs)
			switch {
			case annotated && reason == "":
				out = append(out, Finding{pos, name, allowTag + " needs a reason"})
			case annotated && used:
				out = append(out, Finding{pos, name, "stale " + allowTag + ": the declaration is used; remove the annotation"})
			case !annotated && !used:
				out = append(out, Finding{pos, name, "exported " + d.kind + " used by no non-test code; delete it, move it into a _test.go file, or annotate it // " + allowTag + " <reason>"})
			}
		}
	}
	sort.Slice(out, func(i, j int) bool {
		a, b := out[i].Pos, out[j].Pos
		if a.Filename != b.Filename {
			return a.Filename < b.Filename
		}
		return a.Line < b.Line
	})
	return out, scanned, nil
}

// collect records what one caller file references.
func (u *uses) collect(sf srcFile, names map[string]string) {
	imports := map[string]string{} // local name -> import path
	for _, imp := range sf.f.Imports {
		p, err := strconv.Unquote(imp.Path.Value)
		if err != nil {
			continue
		}
		local := names[p]
		if local == "" {
			local = path.Base(p)
		}
		if imp.Name != nil {
			local = imp.Name.Name
		}
		imports[local] = p
	}
	// Declaration names are not uses.
	skip := map[*ast.Ident]bool{}
	for _, decl := range sf.f.Decls {
		switch d := decl.(type) {
		case *ast.FuncDecl:
			skip[d.Name] = true
		case *ast.GenDecl:
			for _, spec := range d.Specs {
				switch s := spec.(type) {
				case *ast.TypeSpec:
					skip[s.Name] = true
				case *ast.ValueSpec:
					for _, n := range s.Names {
						skip[n] = true
					}
				}
			}
		}
	}
	local := u.local[sf.pkg]
	if local == nil {
		local = map[string]bool{}
		u.local[sf.pkg] = local
	}
	ast.Inspect(sf.f, func(n ast.Node) bool {
		switch n := n.(type) {
		case *ast.ImportSpec:
			return false
		case *ast.SelectorExpr:
			if x, ok := n.X.(*ast.Ident); ok {
				if p, ok := imports[x.Name]; ok {
					u.qualified[p+"."+n.Sel.Name] = true
					return false
				}
			}
			u.selectors[n.Sel.Name] = true
			skip[n.Sel] = true
		case *ast.InterfaceType:
			for _, m := range n.Methods.List {
				for _, id := range m.Names {
					u.interfaces[id.Name] = true
				}
			}
		case *ast.Ident:
			if !skip[n] {
				local[n.Name] = true
			}
		}
		return true
	})
}

func (u *uses) used(pkg string, d decl) bool {
	if d.recv != "" {
		return u.selectors[d.name] || u.interfaces[d.name] || stdMethods[d.name]
	}
	return u.qualified[pkg+"."+d.name] || u.local[pkg][d.name]
}

type decl struct {
	kind, name, recv string
	pos              token.Pos
	docs             []*ast.CommentGroup
}

// exportedDecls lists a file's exported top-level declarations with the
// comment groups an api:allow annotation may sit in.
func exportedDecls(f *ast.File) []decl {
	var out []decl
	for _, d := range f.Decls {
		switch d := d.(type) {
		case *ast.FuncDecl:
			if !d.Name.IsExported() {
				continue
			}
			dc := decl{kind: "func", name: d.Name.Name, pos: d.Name.Pos(), docs: []*ast.CommentGroup{d.Doc}}
			if d.Recv != nil && len(d.Recv.List) == 1 {
				dc.kind = "method"
				if id := recvIdent(d.Recv.List[0].Type); id != nil {
					dc.recv = id.Name
				}
			}
			out = append(out, dc)
		case *ast.GenDecl:
			kind := map[token.Token]string{token.TYPE: "type", token.VAR: "var", token.CONST: "const"}[d.Tok]
			if kind == "" {
				continue
			}
			for _, spec := range d.Specs {
				var ids []*ast.Ident
				docs := []*ast.CommentGroup{}
				if !d.Lparen.IsValid() {
					docs = append(docs, d.Doc)
				}
				switch s := spec.(type) {
				case *ast.TypeSpec:
					ids = []*ast.Ident{s.Name}
					docs = append(docs, s.Doc, s.Comment)
				case *ast.ValueSpec:
					ids = s.Names
					docs = append(docs, s.Doc, s.Comment)
				}
				for _, id := range ids {
					if id.IsExported() {
						out = append(out, decl{kind: kind, name: id.Name, pos: id.Pos(), docs: docs})
					}
				}
			}
		}
	}
	return out
}

// recvIdent returns the type name of a method receiver (T, *T, T[P]).
func recvIdent(e ast.Expr) *ast.Ident {
	for {
		switch t := e.(type) {
		case *ast.StarExpr:
			e = t.X
		case *ast.IndexExpr:
			e = t.X
		case *ast.IndexListExpr:
			e = t.X
		case *ast.Ident:
			return t
		default:
			return nil
		}
	}
}

// allowReason reports whether any of the comment groups carries an
// api:allow line, and the reason that follows the tag.
func allowReason(groups []*ast.CommentGroup) (string, bool) {
	for _, g := range groups {
		if g == nil {
			continue
		}
		for _, c := range g.List {
			text := strings.TrimSpace(strings.TrimPrefix(c.Text, "//"))
			if rest, ok := strings.CutPrefix(text, allowTag); ok {
				return strings.TrimSpace(rest), true
			}
		}
	}
	return "", false
}

func modulePath(gomod string) (string, error) {
	f, err := os.Open(gomod)
	if err != nil {
		return "", err
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if rest, ok := strings.CutPrefix(strings.TrimSpace(sc.Text()), "module "); ok {
			return strings.Trim(strings.TrimSpace(rest), `"`), nil
		}
	}
	if err := sc.Err(); err != nil {
		return "", err
	}
	return "", fmt.Errorf("%s: no module line", gomod)
}
