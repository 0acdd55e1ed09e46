#!/bin/sh
# net_lines.sh — added/removed/net line counts of the working tree
# against a base commit, split the way change summaries report them:
# non-test Go, test Go, and every other non-Markdown file. All *.md
# files are left out, as are binary files.
#
# Usage:
#   scripts/net_lines.sh BASE
#
# Tracked files only: stage new files (git add) first so they count.
set -eu
cd "$(dirname "$0")/.."

if [ $# -ne 1 ]; then
	echo "usage: $0 BASE" >&2
	exit 2
fi

git diff --numstat "$1" -- . ':(exclude)*.md' | awk -F '\t' '
	$1 == "-" { next }  # binary
	{
		if ($3 ~ /_test\.go$/) k = "test Go"
		else if ($3 ~ /\.go$/) k = "non-test Go"
		else k = "other non-Markdown"
		add[k] += $1
		del[k] += $2
	}
	END {
		n = split("non-test Go,test Go,other non-Markdown", order, ",")
		for (i = 1; i <= n; i++) {
			k = order[i]
			printf "%-19s +%d/-%d (net %+d)\n", k ":", add[k], del[k], add[k] - del[k]
		}
	}'
