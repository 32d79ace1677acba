cmssolution 1
cost 29
assign i0 0
assign i1 0
assign i2 0
assign i3 0
assign i4 1
assign i5 1
assign i6 1
assign i7 1
assign i8 0
assign i9 1
assign i10 0
assign i11 1
assign i12 0
assign i13 0
assign i14 0
assign i15 1
assign i16 0
assign i17 0
assign i18 1
assign i19 1
assign i20 1
assign i21 1
assign i22 0
assign i23 0
assign i24 1
assign i25 0
assign i26 0
assign i27 1
assign i28 0
assign i29 1
assign i30 1
assign i31 1
assign i32 1
assign i33 0
assign i34 0
assign i35 0
assign i36 1
assign i37 0
assign i38 1
assign i39 0
voter v0 dissat 7
voter v1 dissat 2
voter v2 dissat 5
voter v3 dissat 7
voter v4 dissat 3
voter v5 dissat 5
