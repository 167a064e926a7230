module mini

go 1.22
