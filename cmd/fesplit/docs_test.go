package main

import (
	"os"
	"path/filepath"
	"regexp"
	"strings"
	"testing"
)

// TestDocsNameRealCommands: every `fesplit <word>` span and every
// fesplit command line in a fenced code block of the user-facing docs
// names an entry of the commands table (or help, which run answers
// before the table), so a removed command cannot live on in the docs.
func TestDocsNameRealCommands(t *testing.T) {
	docs, err := filepath.Glob("../../docs/*.md")
	if err != nil {
		t.Fatal(err)
	}
	docs = append(docs, "../../README.md", "../../DESIGN.md", "../../.claude/skills/verify/SKILL.md")
	known := map[string]bool{"help": true}
	for _, c := range commands {
		known[c.name] = true
	}
	inline := regexp.MustCompile("`(?:\\./)?(?:bin/)?fesplit ([a-z][a-z-]*)")
	invocation := regexp.MustCompile(`(?:^|[\s;&|(])(?:\./)?(?:bin/)?fesplit ([a-z][a-z-]*)`)
	for _, path := range docs {
		text, err := os.ReadFile(path)
		if err != nil {
			t.Fatal(err)
		}
		fenced := false
		for i, line := range strings.Split(string(text), "\n") {
			if strings.HasPrefix(strings.TrimSpace(line), "```") {
				fenced = !fenced
				continue
			}
			re := inline
			if fenced {
				re = invocation
			}
			for _, m := range re.FindAllStringSubmatch(line, -1) {
				if !known[m[1]] {
					t.Errorf("%s:%d: names unknown command %q: %s", filepath.Base(path), i+1, m[1], strings.TrimSpace(line))
				}
			}
		}
	}
}
