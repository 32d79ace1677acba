cmssolution 1
cost 0
assign g0_0 0
assign g0_1 0
assign g0_2 0
assign g1_0 0
assign g1_1 0
assign g1_2 0
assign g2_0 0
assign g2_1 0
assign g2_2 0
voter rows dissat 0
voter cols dissat 0
