from hypothesis import settings

# CI runs the bitwise and round-trip properties with this profile: --hypothesis-profile=ci
settings.register_profile("ci", max_examples=1000)
