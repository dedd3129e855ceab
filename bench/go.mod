module mqdp/bench

go 1.22

require mqdp v0.0.0

replace mqdp => ../
