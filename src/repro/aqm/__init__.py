"""Active queue management baselines.

The paper compares ABC against Cubic running over CoDel and PIE qdiscs
(§6.2/§6.3).  DropTail is the plain deep buffer that produces Cubic's
bufferbloat in Fig. 1a.
"""
