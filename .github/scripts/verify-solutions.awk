# Checks satsample output against its CNF, independently of the Go code:
#
#   awk -f verify-solutions.awk formula.cnf solutions.txt
#
# Every solution line (a 0/1 string over variables 1..N) must satisfy
# every clause, no line may repeat, and there must be at least `want`
# lines (default 20; override with -v want=N). Exits non-zero otherwise.
BEGIN { n = 0; if (want == "") want = 20 }
# First file: collect the clauses (a clause may span lines; 0 ends it).
NR == FNR {
  if ($1 == "c" || $1 == "p") next
  for (i = 1; i <= NF; i++) if ($i == 0) n++; else cl[n] = cl[n] " " $i
  next
}
# Second file: verify each solution.
{
  if (seen[$0]++) { print FILENAME ": line " FNR " repeats a solution"; bad = 1; exit }
  for (c = 0; c < n; c++) {
    k = split(cl[c], lit, " "); ok = 0
    for (j = 1; j <= k; j++) {
      v = lit[j] + 0
      if ((v > 0) == (substr($0, v < 0 ? -v : v, 1) == "1")) { ok = 1; break }
    }
    if (!ok) { print FILENAME ": line " FNR " violates clause " c + 1; bad = 1; exit }
  }
  m++
}
END {
  if (!bad && m < want) print FILENAME ": " m + 0 " verified solutions, want " want
  exit bad || m < want
}
