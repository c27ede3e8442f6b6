#!/usr/bin/env bash
# Non-test Go and assembly lines per package directory, bench/ left out, and
# their total; given a REF, also the net non-test change against it.
#
#   scripts/loc.sh [REF]      (or: make loc [REF=…])
#
# The per-package count reads the working tree (tracked and untracked files,
# ignored ones left out). The change against REF comes from git diff --numstat
# of the working tree against REF, so a new file counts there once git
# tracks it (git add).
set -euo pipefail

if [ $# -gt 1 ]; then
	echo "usage: $0 [REF]" >&2
	exit 2
fi
cd "$(git rev-parse --show-toplevel)"

git ls-files --cached --others --exclude-standard -- '*.go' '*.s' |
	grep -v -e '_test\.go$' -e '^bench/' |
	while read -r f; do
		[ -f "$f" ] && printf '%s %s\n' "$(dirname "$f")" "$(wc -l <"$f")"
	done |
	awk '{n[$1] += $2; t += $2}
		END {for (p in n) printf "%7d  %s\n", n[p], p | "sort -k2"; close("sort -k2"); printf "%7d  total\n", t}'

if [ $# -eq 1 ]; then
	git diff --numstat "$1" -- '*.go' '*.s' ':(exclude)bench/*' ':(exclude)*_test.go' |
		awk -v ref="$1" '{a += $1; d += $2}
			END {printf "%+7d  net against %s (+%d -%d)\n", a - d, ref, a, d}'
fi
