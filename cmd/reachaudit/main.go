// Command reachaudit fails when a non-test function is reached by no
// program and is not named in allowlist.txt with a reason.
//
//	go run ./cmd/reachaudit
//
// It lists every main package of the root module and of the bench
// module, builds each with -gcflags=all=-l -ldflags=-dumpdep (without
// -l an inlined function leaves no symbol in the dump), and collects
// every symbol the linker keeps. Generic shapes ("[go.shape.int]") are
// stripped so that a generic function or method matches its
// declaration. Every func declared in a non-test file of those modules
// that no dump names must appear in the allowlist, and every allowlist
// entry must name an unreached function that exists, so the list
// cannot go stale. Exit status 1 reports either fault.
package main

import (
	_ "embed"
	"fmt"
	"go/ast"
	"go/parser"
	"go/token"
	"os"
	"os/exec"
	"path"
	"path/filepath"
	"sort"
	"strings"
)

//go:embed allowlist.txt
var allowlist string

// reasons are the five grounds on which an unreached function may stay.
// DESIGN.md ("Allowlist") defines each.
var reasons = map[string]bool{"checker": true, "api": true, "roadmap-1e": true, "paper": true, "test-hook": true}

func main() {
	root := strings.TrimSpace(goCmd(".", "list", "-m", "-f", "{{.Dir}}"))
	// Symbols print relative to the module's parent path:
	// "pimtrie/internal/core.(*PIMTrie).Validate".
	trim := path.Dir(strings.TrimSpace(goCmd(root, "list", "-m"))) + "/"
	tmp, err := os.MkdirTemp("", "reachaudit")
	if err != nil {
		fail(err)
	}
	defer os.RemoveAll(tmp)

	reached, declared, mains := map[string]bool{}, map[string]bool{}, 0
	for _, dir := range []string{root, filepath.Join(root, "bench")} {
		list := goCmd(dir, "list", "-f", "{{.ImportPath}}\t{{.Name}}\t{{.Dir}}\t{{join .GoFiles \" \"}}", "./...")
		for _, line := range strings.Split(strings.TrimSpace(list), "\n") {
			f := strings.Split(line, "\t")
			importPath, name, pkgDir := f[0], f[1], f[2]
			for _, file := range strings.Fields(f[3]) {
				for _, k := range declaredFuncs(importPath, filepath.Join(pkgDir, file)) {
					declared[strings.TrimPrefix(k, trim)] = true
				}
			}
			if name != "main" {
				continue
			}
			mains++
			dump := goCmd(dir, "build", "-o", filepath.Join(tmp, "bin"), "-gcflags=all=-l", "-ldflags=-dumpdep", importPath)
			for _, edge := range strings.Split(dump, "\n") {
				from, to, ok := strings.Cut(edge, " -> ")
				if !ok {
					continue
				}
				to, _, _ = strings.Cut(to, " <") // "<UsedInIface>" and the like
				for _, sym := range []string{from, to} {
					sym = stripShapes(sym)
					if strings.HasPrefix(sym, "main.") {
						sym = importPath + sym[len("main"):]
					}
					reached[strings.TrimPrefix(sym, trim)] = true
				}
			}
		}
	}

	allowed, bad := map[string]bool{}, 0
	for i, line := range strings.Split(allowlist, "\n") {
		f := strings.Fields(line)
		switch {
		case len(f) == 0 || strings.HasPrefix(f[0], "#"):
			continue
		case len(f) != 2 || !reasons[f[1]]:
			fmt.Printf("allowlist.txt:%d: want \"<function> <reason>\" with a known reason: %q\n", i+1, line)
		case !declared[f[0]]:
			fmt.Printf("allowlist.txt:%d: %s does not exist\n", i+1, f[0])
		case reached[f[0]]:
			fmt.Printf("allowlist.txt:%d: %s is reached; drop it from the list\n", i+1, f[0])
		default:
			allowed[f[0]] = true
			continue
		}
		bad++
	}
	var unreached []string
	for k := range declared {
		if !reached[k] && !allowed[k] {
			unreached = append(unreached, k)
		}
	}
	sort.Strings(unreached)
	for _, k := range unreached {
		fmt.Println("unreached:", k)
	}
	if len(unreached) > 0 {
		fmt.Println("delete each unreached function, or list it in cmd/reachaudit/allowlist.txt with a reason")
	}
	if bad+len(unreached) > 0 {
		os.Exit(1)
	}
	fmt.Printf("reachaudit: %d mains, %d functions, %d allowlisted, none unreached\n", mains, len(declared), len(allowed))
}

// declaredFuncs returns the linker symbol of every func with a body in
// one file of package importPath: "pkg.F", "pkg.T.M" or "pkg.(*T).M",
// without type parameters. init and blank functions are skipped.
func declaredFuncs(importPath, file string) []string {
	f, err := parser.ParseFile(token.NewFileSet(), file, nil, parser.SkipObjectResolution)
	if err != nil {
		fail(err)
	}
	var keys []string
	for _, d := range f.Decls {
		fd, ok := d.(*ast.FuncDecl)
		if !ok || fd.Body == nil || fd.Name.Name == "init" || fd.Name.Name == "_" {
			continue
		}
		key := importPath + "."
		if fd.Recv != nil {
			key += recvName(fd.Recv.List[0].Type) + "."
		}
		keys = append(keys, key+fd.Name.Name)
	}
	return keys
}

// recvName spells a receiver type as the linker does, without type
// parameters: "T" or "(*T)".
func recvName(e ast.Expr) string {
	switch t := e.(type) {
	case *ast.StarExpr:
		return "(*" + recvName(t.X) + ")"
	case *ast.IndexExpr:
		return recvName(t.X)
	case *ast.IndexListExpr:
		return recvName(t.X)
	}
	return e.(*ast.Ident).Name
}

// stripShapes removes every balanced [...] from a symbol.
func stripShapes(s string) string {
	if !strings.Contains(s, "[") {
		return s
	}
	var b strings.Builder
	depth := 0
	for _, r := range s {
		switch {
		case r == '[':
			depth++
		case r == ']' && depth > 0:
			depth--
		case depth == 0:
			b.WriteRune(r)
		}
	}
	return b.String()
}

// goCmd runs the go command in dir and returns its combined output;
// -dumpdep writes to stderr.
func goCmd(dir string, args ...string) string {
	cmd := exec.Command("go", args...)
	cmd.Dir = dir
	out, err := cmd.CombinedOutput()
	if err != nil {
		fail(fmt.Errorf("go %s: %v\n%s", strings.Join(args, " "), err, out))
	}
	return string(out)
}

func fail(err error) {
	fmt.Fprintln(os.Stderr, "reachaudit:", err)
	os.Exit(2)
}
