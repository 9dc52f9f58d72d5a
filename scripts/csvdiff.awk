# csvdiff.awk compares two CSV files that start with a header row, matching
# columns by name:
#
#   awk -F, -f scripts/csvdiff.awk parent.csv tree.csv
#
# It prints each column only one side has, then the first line and column
# where a shared column's values differ and any difference in the row count.
# The exit status is 1 on any header or value difference (a reordered header
# included) and 0 when the files agree. Cells must not hold commas.
FILENAME == ARGV[1] {
	if (FNR == 1) {
		head = $0
		for (i = 1; i <= NF; i++) {
			name[i] = $i
			old[$i] = i
		}
		cols = NF
	} else {
		row[FNR] = $0
	}
	rows = FNR
	next
}
FNR == 1 {
	for (i = 1; i <= NF; i++) {
		new[$i] = i
		if (!($i in old)) {
			print "csv: column added: " $i
			st = 1
		}
	}
	for (i = 1; i <= cols; i++) {
		if (!(name[i] in new)) {
			print "csv: column removed: " name[i]
			st = 1
		}
	}
	if (!st && $0 != head) {
		print "csv: columns reordered"
		st = 1
	}
	next
}
{
	trows = FNR
	if (differs || !(FNR in row)) {
		next
	}
	split(row[FNR], p, FS)
	for (i = 1; i <= cols; i++) {
		if ((name[i] in new) && p[i] != $(new[name[i]])) {
			printf "csv: line %d, column %s: parent %s, tree %s\n", FNR, name[i], p[i], $(new[name[i]])
			differs = st = 1
			break
		}
	}
}
END {
	if (rows != trows) {
		printf "csv: parent has %d lines, tree %d\n", rows, trows
		st = 1
	}
	exit st
}
