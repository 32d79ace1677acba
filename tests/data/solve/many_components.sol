cmssolution 1
cost 5
assign i0 0
assign i1 1
assign i2 1
assign i3 0
assign i4 0
assign i5 0
assign i6 0
assign i7 1
assign i8 1
assign i9 0
assign i10 0
assign i11 0
assign i12 0
assign i13 0
assign i14 0
assign i15 1
assign i16 0
assign i17 0
assign i18 0
assign i19 0
assign i20 0
assign i21 1
assign i22 0
assign i23 1
assign i24 0
assign i25 0
assign i26 0
assign i27 0
assign i28 0
assign i29 0
assign i30 0
assign i31 0
assign i32 1
assign i33 0
assign i34 0
assign i35 0
assign i36 0
assign i37 0
assign i38 0
assign i39 0
assign i40 0
assign i41 0
assign i42 0
assign i43 0
assign i44 0
assign i45 0
assign i46 0
assign i47 0
assign i48 0
assign i49 1
assign i50 0
assign i51 0
assign i52 0
assign i53 0
assign i54 0
assign i55 0
assign i56 0
assign i57 1
assign i58 0
assign i59 0
assign i60 0
assign i61 1
assign i62 0
assign i63 0
assign i64 0
assign i65 0
assign i66 0
assign i67 0
assign i68 0
assign i69 0
assign i70 0
assign i71 0
assign i72 0
assign i73 0
assign i74 0
assign i75 0
assign i76 0
assign i77 0
assign i78 0
assign i79 0
assign i80 0
assign i81 0
assign i82 0
assign i83 0
assign i84 0
assign i85 1
assign i86 0
assign i87 1
assign i88 0
assign i89 0
assign i90 0
assign i91 0
assign i92 0
assign i93 0
assign i94 0
assign i95 0
assign i96 0
assign i97 0
assign i98 0
assign i99 0
assign i100 0
assign i101 0
assign i102 1
assign i103 0
assign i104 0
assign i105 0
assign i106 0
assign i107 0
assign i108 0
assign i109 0
assign i110 0
assign i111 1
assign i112 1
assign i113 0
assign i114 0
assign i115 0
assign i116 0
assign i117 0
assign i118 0
assign i119 0
voter v0 dissat 0
voter v1 dissat 0
voter v2 dissat 0
voter v3 dissat 0
voter v4 dissat 0
voter v5 dissat 0
voter v6 dissat 0
voter v7 dissat 0
voter v8 dissat 0
voter v9 dissat 1
voter v10 dissat 0
voter v11 dissat 1
voter v12 dissat 0
voter v13 dissat 0
voter v14 dissat 0
voter v15 dissat 0
voter v16 dissat 0
voter v17 dissat 1
voter v18 dissat 1
voter v19 dissat 1
