"""Explicit congestion control baselines: XCP, XCPw, RCP and VCP.

These are the schemes ABC is compared against in §6.3 and Appendix D.  Each
consists of a router qdisc that computes multi-bit feedback and a sender that
obeys it; the feedback travels in ``packet.meta`` — precisely the extra header
state the paper points out makes these protocols hard to deploy, and that ABC
replaces with a single re-purposed ECN bit.
"""
