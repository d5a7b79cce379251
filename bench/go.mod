module vantage/bench

go 1.22

require vantage v0.0.0

replace vantage => ../
