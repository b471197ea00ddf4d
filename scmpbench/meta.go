package main

import (
	"bufio"
	"crypto/sha256"
	"fmt"
	"io/fs"
	"os"
	"path/filepath"
	"sort"
	"strings"
)

// gitHead reads HEAD without running git: a detached hash, or the hash
// its ref points to (loose or packed). "" when root is not a checkout.
// It does not see uncommitted changes; sourceDigest, recorded next to
// it, does.
func gitHead(root string) string {
	head, err := os.ReadFile(filepath.Join(root, ".git", "HEAD"))
	if err != nil {
		return ""
	}
	h := strings.TrimSpace(string(head))
	ref, ok := strings.CutPrefix(h, "ref: ")
	if !ok {
		return h
	}
	if b, err := os.ReadFile(filepath.Join(root, ".git", filepath.FromSlash(ref))); err == nil {
		return strings.TrimSpace(string(b))
	}
	f, err := os.Open(filepath.Join(root, ".git", "packed-refs"))
	if err != nil {
		return ""
	}
	defer f.Close()
	sc := bufio.NewScanner(f)
	for sc.Scan() {
		if hash, name, ok := strings.Cut(sc.Text(), " "); ok && name == ref {
			return hash
		}
	}
	return ""
}

// sourceDigest names the code a run measured, committed or not: "src:"
// plus a hash of the path and contents of every .go and go.mod file
// under root in sorted path order, skipping dot directories (build
// output, VCS metadata).
func sourceDigest(root string) string {
	var files []string
	_ = filepath.WalkDir(root, func(p string, d fs.DirEntry, err error) error {
		if err != nil {
			return nil // unreadable entries are simply not hashed
		}
		if d.IsDir() && p != root && strings.HasPrefix(d.Name(), ".") {
			return filepath.SkipDir
		}
		if !d.IsDir() && (strings.HasSuffix(p, ".go") || d.Name() == "go.mod") {
			files = append(files, p)
		}
		return nil
	})
	sort.Strings(files)
	h := sha256.New()
	for _, p := range files {
		b, err := os.ReadFile(p)
		if err != nil {
			continue
		}
		fmt.Fprintf(h, "%s %d\n", filepath.ToSlash(p), len(b))
		h.Write(b)
	}
	return fmt.Sprintf("src:%x", h.Sum(nil)[:8])
}
