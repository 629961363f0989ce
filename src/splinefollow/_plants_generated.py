"""Float code of the symbolic plants' ``forces`` and ``kinematics`` calls.

Written by ``python -m splinefollow.symbolic`` from the derivations in
``symbolic.py``; do not edit.  ``<plant>_forces(q, qd)`` returns (rows of
D, C qd + G) and ``<plant>_kinematics(q, qd)`` returns (h, rows of J,
rows of d(J qd)/dq), as nested lists of floats.
"""

from math import cos, sin


def planar3r_forces(q, qd):
    [q0, q1, q2] = q
    [qdot0, qdot1, qdot2] = qd
    x0 = cos(q2)
    x1 = cos(q1)
    x2 = q1 + q2
    x3 = cos(x2)
    x4 = (1/2)*x3
    x5 = x0 + 7/2
    x6 = (3/2)*x1 + x4 + x5
    x7 = (1/2)*x0 + 5/4
    x8 = x4 + x7
    x9 = sin(q1)
    x10 = sin(x2)
    x11 = qdot0*qdot1
    x12 = sin(q2)
    x13 = qdot2*(-x10 - x12)
    x14 = qdot1**2
    x15 = (1/2)*x10
    x16 = x15 + (3/2)*x9
    x17 = qdot2**2
    x18 = (1/2)*x12
    x19 = x15 + x18
    x20 = qdot2*x12
    x21 = qdot0**2
    return [[[x0 + 3*x1 + x3 + 27/4, x6, x8], [x6, x5, x7], [x8, x7, 5/4]], [qdot0*x13 + qdot1*x13 + x11*(-x10 - 3*x9) - x14*x16 - x17*x19, -qdot0*x20 - qdot1*x20 + x16*x21 - x17*x18, x11*x12 + x14*x18 + x19*x21]]


def planar3r_kinematics(q, qd):
    [q0, q1, q2] = q
    [qdot0, qdot1, qdot2] = qd
    x0 = q0 + q1
    x1 = q2 + x0
    x2 = cos(x1)
    x3 = x2 + cos(x0)
    x4 = x3 + cos(q0)
    x5 = sin(x1)
    x6 = x5 + sin(x0)
    x7 = x6 + sin(q0)
    x8 = -x7
    x9 = -x6
    x10 = -x3
    x11 = qdot2*x2
    x12 = qdot1*x10 - x11
    x13 = qdot2*x5
    x14 = qdot1*x9 - x13
    return [[x4, x7], [[x8, x9, -x5], [x4, x3, x2]], [[-qdot0*x4 + x12, qdot0*x10 + x12, -qdot0*x2 - qdot1*x2 - x11], [qdot0*x8 + x14, qdot0*x9 + x14, -qdot0*x5 - qdot1*x5 - x13]]]


def cpm_forces(q, qd):
    [q0, q1, q2, q3] = q
    [qdot0, qdot1, qdot2, qdot3] = qd
    x0 = cos(q2)
    x1 = cos(q3)
    x2 = 0.06*x1
    x3 = 2*q1
    x4 = q2 + q3
    x5 = cos(x4)
    x6 = 0.0675*x5
    x7 = q2 + x3
    x8 = cos(x7)
    x9 = x3 + x4
    x10 = 2*q2 + x3
    x11 = cos(x10)
    x12 = q3 + x10
    x13 = 2*q3 + x10
    x14 = 0.12*x1 + 1.38777878078145e-17*x11
    x15 = 0.342*x0 + x14 + x6 + 2.77555756156289e-17*x8 + 0.2545
    x16 = x2 + 0.0225
    x17 = x16 + x6
    x18 = sin(x13)
    x19 = 0.0225*x18
    x20 = sin(q3)
    x21 = 0.06*x20
    x22 = sin(x4)
    x23 = 0.0675*x22
    x24 = x21 + x23
    x25 = sin(x9)
    x26 = 0.0675*x25
    x27 = sin(x12)
    x28 = 0.06*x27
    x29 = x26 + x28
    x30 = sin(x3)
    x31 = sin(x7)
    x32 = sin(x10)
    x33 = x19 + 0.12*x27 + 0.232*x32
    x34 = 0.342*x31
    x35 = sin(q2)
    x36 = cos(q1 + q2)
    x37 = cos(q1 + x4)
    x38 = 1.4715*x37
    x39 = 0.12*x20
    x40 = 0.135*x22
    x41 = qdot3*(-x39 - x40)
    x42 = qdot3**2
    x43 = qdot1**2
    x44 = 1.11022302462516e-16*x31
    x45 = 1.38777878078145e-17*x32
    x46 = 2.77555756156289e-17*x32
    x47 = qdot1*qdot2
    x48 = qdot2**2
    x49 = qdot0**2
    x50 = 0.01125*x18
    x51 = 0.116*x32
    x52 = qdot3*x39
    x53 = 0.03375*x22 + 0.03375*x25 + x50
    return [[[0.342*x0 + 0.116*x11 + x2 + x6 + 0.342*x8 + 0.06*cos(x12) + 0.01125*cos(x13) + 0.34678125*cos(x3) + 0.0675*cos(x9) + 0.55403125, 0, 0, 0], [0, 0.684*x0 + x14 + 0.135*x5 + 1.11022302462516e-16*x8 + 0.9980625, x15, x17], [0, x15, x14 + 0.2945, x16], [0, x17, x16, 0.0425000000000000]], [qdot0*qdot1*(-0.135*x25 - 0.6935625*x30 - 0.684*x31 - x33) + qdot0*qdot2*(-x23 - x26 - x33 - x34 - 0.342*x35) + qdot0*qdot3*(-x19 - x24 - x29), qdot1*x41 + qdot2*x41 - x24*x42 + 7.4556*x36 + x38 + x43*(-x44 - x45) + x47*(-0.684*x35 - x40 - x44 - x46) + x48*(-x23 - 2.77555756156289e-17*x31 - 0.342*x35 - x45) + x49*(x29 + 0.34678125*x30 + x34 + x50 + x51) + 17.878725*cos(q1), -qdot1*x52 - qdot2*x52 - x21*x42 + 7.4556*x36 + 1.4715*x37 + x43*(x23 + 0.342*x35 - x45) - x45*x48 - x46*x47 + x49*(x28 + 0.171*x31 + 0.171*x35 + x51 + x53), x21*x48 + x24*x43 + x38 + x39*x47 + x49*(0.03*x20 + 0.03*x27 + x53)]]


def cpm_kinematics(q, qd):
    [q0, q1, q2, q3] = q
    [qdot0, qdot1, qdot2, qdot3] = qd
    x0 = cos(q0)
    x1 = q1 + q2
    x2 = q3 + x1
    x3 = (3/10)*cos(x2)
    x4 = x3 + (2/5)*cos(x1)
    x5 = x4 + (9/20)*cos(q1)
    x6 = x0*x5
    x7 = sin(q0)
    x8 = x5*x7
    x9 = sin(x2)
    x10 = (3/10)*x9
    x11 = x10 + (2/5)*sin(x1)
    x12 = x11 + (9/20)*sin(q1)
    x13 = -x12
    x14 = x0*x13
    x15 = -x11
    x16 = x0*x15
    x17 = x0*x10
    x18 = x13*x7
    x19 = x15*x7
    x20 = -x5
    x21 = -x4
    x22 = x0*x3
    x23 = qdot3*x22
    x24 = -qdot2*x0*x21 + x23
    x25 = qdot1*x7
    x26 = x3*x7
    x27 = qdot3*x26
    x28 = qdot2*x21*x7 - x27
    x29 = qdot3*x10
    x30 = qdot2*x15 - x29
    return [[x6, x8, x12 + 0.3], [[-x8, x14, x16, -x17], [x6, x18, x19, -x10*x7], [0, x5, x4, x3]], [[-qdot0*x6 - qdot1*x18 - qdot2*x19 + (3/10)*qdot3*x7*x9, -qdot0*x18 + qdot1*x0*x20 - x24, -qdot0*x19 + qdot1*x0*x21 - x24, (3/10)*qdot0*x7*x9 - qdot1*x0*x3 - qdot2*x22 - x23], [-qdot0*x8 + qdot1*x0*x13 + qdot2*x0*x15 - qdot3*x17, qdot0*x14 + x20*x25 + x28, qdot0*x16 + x21*x25 + x28, -qdot0*x17 - qdot2*x26 - x25*x3 - x27], [0, qdot1*x13 + x30, qdot1*x15 + x30, -qdot1*x10 - qdot2*x10 - x29]]]
