module atrapos/benchmark

go 1.22

require atrapos v0.0.0

replace atrapos => ../
