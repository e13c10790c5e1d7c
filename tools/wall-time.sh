#!/usr/bin/env bash
# Runs a command, appends "<label> <elapsed wall seconds>" to a file, and
# exits with the command's status.  The analysis workflow records each
# perseas-mc leg's host time this way; nothing gates on the numbers.
#
# Usage:
#   tools/wall-time.sh <file> <label> <command> [args...]
set -uo pipefail

if [[ $# -lt 3 ]]; then
  echo "usage: $0 <file> <label> <command> [args...]" >&2
  exit 2
fi
file=$1
label=$2
shift 2

start=$(date +%s%N)
status=0
"$@" || status=$?
elapsed_ms=$(( ($(date +%s%N) - start) / 1000000 ))
printf '%s %d.%03d\n' "$label" $((elapsed_ms / 1000)) $((elapsed_ms % 1000)) >> "$file"
exit "$status"
