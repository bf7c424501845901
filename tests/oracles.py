"""Test-only oracles over a group's Cayley table."""


def inv(group, a):
    """The inverse of element a, read off its row of the table."""
    return group.table[a].index(0)


def check_subgroup(group, sub):
    """Closure of the member set under products and inverses."""
    members = set(sub.members)
    if 0 not in members:
        return False
    for a in members:
        if inv(group, a) not in members:
            return False
        for b in members:
            if group.table[a][b] not in members:
                return False
    return True
